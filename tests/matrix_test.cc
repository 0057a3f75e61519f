// Tests for the dense Matrix kernels against hand-computed references.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/tensor/matrix.h"

namespace adpa {
namespace {

TEST(MatrixTest, ConstructZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(MatrixTest, FromRowsRoundTrip) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.At(0, 2), 3.0f);
  EXPECT_EQ(m.At(1, 0), 4.0f);
}

TEST(MatrixTest, IdentityHasUnitDiagonal) {
  Matrix identity = Matrix::Identity(4);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(identity.At(r, c), r == c ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, MatMulHandComputed) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Matrix::FromRows({{19, 22}, {43, 50}})));
}

TEST(MatrixTest, MatMulIdentityIsNoop) {
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(5, 5, &rng);
  EXPECT_TRUE(AllClose(MatMul(a, Matrix::Identity(5)), a));
  EXPECT_TRUE(AllClose(MatMul(Matrix::Identity(5), a), a));
}

TEST(MatrixTest, MatMulTransposeAMatchesExplicit) {
  Rng rng(2);
  Matrix a = Matrix::RandomNormal(4, 3, &rng);
  Matrix b = Matrix::RandomNormal(4, 5, &rng);
  EXPECT_TRUE(AllClose(MatMulTransposeA(a, b), MatMul(a.Transposed(), b),
                       1e-4f));
}

TEST(MatrixTest, MatMulTransposeBMatchesExplicit) {
  Rng rng(3);
  Matrix a = Matrix::RandomNormal(4, 3, &rng);
  Matrix b = Matrix::RandomNormal(5, 3, &rng);
  EXPECT_TRUE(AllClose(MatMulTransposeB(a, b), MatMul(a, b.Transposed()),
                       1e-4f));
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(4);
  Matrix a = Matrix::RandomNormal(3, 7, &rng);
  EXPECT_TRUE(AllClose(a.Transposed().Transposed(), a));
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  EXPECT_TRUE(AllClose(Add(a, b), Matrix::FromRows({{11, 22}, {33, 44}})));
  EXPECT_TRUE(AllClose(Sub(b, a), Matrix::FromRows({{9, 18}, {27, 36}})));
  EXPECT_TRUE(
      AllClose(Hadamard(a, b), Matrix::FromRows({{10, 40}, {90, 160}})));
  EXPECT_TRUE(AllClose(Scale(a, 2.0f), Matrix::FromRows({{2, 4}, {6, 8}})));
}

TEST(MatrixTest, InPlaceOpsMatchOutOfPlace) {
  Matrix a = Matrix::FromRows({{1, -2}, {0.5, 4}});
  Matrix b = Matrix::FromRows({{2, 2}, {2, 2}});
  Matrix sum = a;
  sum.AddInPlace(b);
  EXPECT_TRUE(AllClose(sum, Add(a, b)));
  Matrix scaled = a;
  scaled.AddScaledInPlace(b, -0.5f);
  EXPECT_TRUE(AllClose(scaled, Sub(a, Scale(b, 0.5f))));
}

TEST(MatrixTest, ApplyTransformsEveryEntry) {
  Matrix a = Matrix::FromRows({{-1, 2}, {-3, 4}});
  a.ApplyFn([](float v) { return v < 0 ? 0.0f : v; });
  EXPECT_TRUE(AllClose(a, Matrix::FromRows({{0, 2}, {0, 4}})));
}

TEST(MatrixTest, Reductions) {
  Matrix a = Matrix::FromRows({{3, -4}, {0, 12}});
  EXPECT_FLOAT_EQ(a.SumAll(), 11.0f);
  EXPECT_FLOAT_EQ(a.FrobeniusNorm(), 13.0f);  // sqrt(9+16+0+144)
}

TEST(MatrixTest, ConcatCols) {
  Matrix a = Matrix::FromRows({{1}, {2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix c = ConcatCols({a, b, a});
  EXPECT_TRUE(AllClose(c, Matrix::FromRows({{1, 3, 4, 1}, {2, 5, 6, 2}})));
}

TEST(MatrixTest, AddRowBroadcast) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix row = Matrix::FromRows({{10, 20}});
  EXPECT_TRUE(
      AllClose(AddRowBroadcast(a, row), Matrix::FromRows({{11, 22}, {13, 24}})));
}

TEST(MatrixTest, SoftmaxRowsSumsToOne) {
  Rng rng(5);
  Matrix a = Matrix::RandomNormal(6, 4, &rng, 0.0f, 3.0f);
  Matrix s = SoftmaxRows(a);
  for (int64_t r = 0; r < s.rows(); ++r) {
    double total = 0.0;
    for (int64_t c = 0; c < s.cols(); ++c) {
      EXPECT_GT(s.At(r, c), 0.0f);
      total += s.At(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(MatrixTest, SoftmaxRowsIsShiftInvariant) {
  Matrix a = Matrix::FromRows({{1, 2, 3}});
  Matrix b = Matrix::FromRows({{101, 102, 103}});
  EXPECT_TRUE(AllClose(SoftmaxRows(a), SoftmaxRows(b), 1e-5f));
}

TEST(MatrixTest, SoftmaxRowsNumericallyStableOnLargeInputs) {
  Matrix a = Matrix::FromRows({{1000, 1001}});
  Matrix s = SoftmaxRows(a);
  EXPECT_FALSE(std::isnan(s.At(0, 0)));
  EXPECT_NEAR(s.At(0, 0) + s.At(0, 1), 1.0f, 1e-5f);
}

TEST(MatrixTest, AllCloseRespectsTolerance) {
  Matrix a = Matrix::FromRows({{1.0f}});
  Matrix b = Matrix::FromRows({{1.001f}});
  EXPECT_FALSE(AllClose(a, b, 1e-4f));
  EXPECT_TRUE(AllClose(a, b, 1e-2f));
  EXPECT_FALSE(AllClose(a, Matrix(2, 1)));  // shape mismatch
}

TEST(MatrixTest, RandomNormalMoments) {
  Rng rng(6);
  Matrix m = Matrix::RandomNormal(100, 100, &rng, 2.0f, 0.5f);
  double sum = 0.0, sq = 0.0;
  for (int64_t i = 0; i < m.size(); ++i) {
    sum += m.data()[i];
    sq += m.data()[i] * m.data()[i];
  }
  const double mean = sum / m.size();
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(sq / m.size() - mean * mean, 0.25, 0.02);
}

TEST(MatrixTest, RandomUniformRange) {
  Rng rng(7);
  Matrix m = Matrix::RandomUniform(50, 50, &rng, -0.25f, 0.75f);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -0.25f);
    EXPECT_LT(m.data()[i], 0.75f);
  }
}

// Parameterized shape sweep: (AB)ᵀ == Bᵀ Aᵀ across sizes.
class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, TransposeOfProductIdentity) {
  const auto [n, k, m] = GetParam();
  Rng rng(n * 10007 + k * 101 + m);
  Matrix a = Matrix::RandomNormal(n, k, &rng);
  Matrix b = Matrix::RandomNormal(k, m, &rng);
  Matrix left = MatMul(a, b).Transposed();
  Matrix right = MatMul(b.Transposed(), a.Transposed());
  EXPECT_TRUE(AllClose(left, right, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapeTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(7, 1, 5),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(5, 31, 2)));

// Invariant-enforcement coverage: shape-mismatched ops must hit ADPA_CHECK
// and abort, the DCHECK bounds layer must fire when compiled in, and the
// CheckFinite guard must catch NaN/Inf. The "threadsafe" style re-executes
// the test binary for the child, which is the only style that is reliable
// under the sanitizer presets.
class MatrixDeathTest : public ::testing::Test {
 protected:
  MatrixDeathTest() {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(MatrixDeathTest, MatMulInnerDimensionMismatchAborts) {
  Matrix a(2, 3);
  Matrix b(4, 2);
  EXPECT_DEATH(MatMul(a, b), "Check failed");
}

TEST_F(MatrixDeathTest, TransposeKernelShapeMismatchAborts) {
  Matrix a(2, 3);
  Matrix b(4, 5);
  EXPECT_DEATH(MatMulTransposeA(a, b), "Check failed");  // needs a.rows == b.rows
  EXPECT_DEATH(MatMulTransposeB(a, b), "Check failed");  // needs a.cols == b.cols
}

TEST_F(MatrixDeathTest, ElementwiseShapeMismatchAborts) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  EXPECT_DEATH(a.AddInPlace(b), "Check failed");
  EXPECT_DEATH(Sub(a, b), "Check failed");
  EXPECT_DEATH(Hadamard(a, b), "Check failed");
}

TEST_F(MatrixDeathTest, BroadcastAndConcatShapeMismatchAborts) {
  Matrix a(2, 3);
  EXPECT_DEATH(AddRowBroadcast(a, Matrix(2, 3)), "Check failed");
  EXPECT_DEATH(AddRowBroadcast(a, Matrix(1, 2)), "Check failed");
  EXPECT_DEATH(ConcatCols(a, Matrix(3, 3)), "Check failed");
}

TEST_F(MatrixDeathTest, DcheckedAtCatchesOutOfBoundsWhenEnabled) {
#if ADPA_DCHECK_IS_ON
  Matrix a(2, 3);
  EXPECT_DEATH(a.At(2, 0), "Check failed");
  EXPECT_DEATH(a.At(0, 3), "Check failed");
  EXPECT_DEATH(a.Row(3), "Check failed");
#else
  GTEST_SKIP() << "ADPA_DCHECK compiled out (Release without "
                  "ADPA_FORCE_DCHECKS)";
#endif
}

TEST_F(MatrixDeathTest, CheckFiniteCatchesNanAndInf) {
  Matrix ok = Matrix::FromRows({{1.0f, -2.0f}, {0.0f, 3.5f}});
  ok.CheckFinite("ok");  // finite data must pass silently

  Matrix with_nan = ok;
  with_nan.At(1, 0) = std::nanf("");
  EXPECT_DEATH(with_nan.CheckFinite("grad"), "grad: non-finite");

  Matrix with_inf = ok;
  with_inf.At(0, 1) = std::numeric_limits<float>::infinity();
  EXPECT_DEATH(with_inf.CheckFinite("logits"), "logits: non-finite");
}

}  // namespace
}  // namespace adpa
