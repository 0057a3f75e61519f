// Gradient correctness tests: every autograd op is checked against central
// finite differences through a scalar loss.

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/graph/sparse_matrix.h"
#include "src/tensor/autograd.h"

namespace adpa {
namespace {

/// Builds loss(params) -> 1x1 Variable. The callable must rebuild the graph
/// from the *current values* of the given leaf parameters on every call.
using LossFn =
    std::function<ag::Variable(const std::vector<ag::Variable>& params)>;

/// Checks d(loss)/d(params) via central differences with step `eps`.
void CheckGradients(const LossFn& loss_fn, std::vector<ag::Variable> params,
                    float eps = 1e-3f, float tolerance = 2e-2f) {
  ag::Variable loss = loss_fn(params);
  for (auto& p : params) p.ZeroGrad();
  ag::Backward(loss);
  for (size_t k = 0; k < params.size(); ++k) {
    Matrix analytic = params[k].grad();
    ASSERT_FALSE(analytic.empty()) << "param " << k << " got no gradient";
    Matrix* value = params[k].mutable_value();
    for (int64_t i = 0; i < value->size(); ++i) {
      const float original = value->data()[i];
      value->data()[i] = original + eps;
      const float up = loss_fn(params).value().At(0, 0);
      value->data()[i] = original - eps;
      const float down = loss_fn(params).value().At(0, 0);
      value->data()[i] = original;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic.data()[i], numeric,
                  tolerance * std::max(1.0f, std::fabs(numeric)))
          << "param " << k << " entry " << i;
    }
  }
}

ag::Variable RandomParam(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  return ag::Parameter(Matrix::RandomNormal(rows, cols, &rng, 0.0f, 0.7f));
}

TEST(AutogradTest, AddGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        return ag::SumAll(ag::Mul(ag::Add(p[0], p[1]), ag::Add(p[0], p[1])));
      },
      {RandomParam(3, 2, 1), RandomParam(3, 2, 2)});
}

TEST(AutogradTest, SubGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        return ag::SumAll(ag::Mul(ag::Sub(p[0], p[1]), ag::Sub(p[0], p[1])));
      },
      {RandomParam(2, 4, 3), RandomParam(2, 4, 4)});
}

TEST(AutogradTest, MatMulGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        return ag::SumAll(ag::Mul(ag::MatMul(p[0], p[1]),
                                  ag::MatMul(p[0], p[1])));
      },
      {RandomParam(3, 4, 5), RandomParam(4, 2, 6)});
}

TEST(AutogradTest, MatMulTransposeAGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        ag::Variable out = ag::MatMulTransposeA(p[0], p[1]);
        return ag::SumAll(ag::Mul(out, out));
      },
      {RandomParam(4, 3, 7), RandomParam(4, 2, 8)});
}

TEST(AutogradTest, AddBiasGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        ag::Variable out = ag::AddBias(p[0], p[1]);
        return ag::SumAll(ag::Mul(out, out));
      },
      {RandomParam(3, 4, 9), RandomParam(1, 4, 10)});
}

TEST(AutogradTest, SpMMGradients) {
  SparseMatrix a = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0f}, {1, 0, -1.0f}, {1, 2, 0.5f}, {2, 2, 3.0f}});
  CheckGradients(
      [a](const std::vector<ag::Variable>& p) {
        ag::Variable out = ag::SpMM(a, p[0]);
        return ag::SumAll(ag::Mul(out, out));
      },
      {RandomParam(3, 2, 11)});
}

TEST(AutogradTest, ReluGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        return ag::SumAll(ag::Mul(ag::Relu(p[0]), ag::Relu(p[0])));
      },
      {RandomParam(4, 4, 12)});
}

TEST(AutogradTest, SigmoidGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        return ag::SumAll(ag::Sigmoid(p[0]));
      },
      {RandomParam(3, 3, 14)});
}

TEST(AutogradTest, ConcatAndSliceGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        ag::Variable cat = ag::ConcatCols({p[0], p[1]});
        ag::Variable left = ag::SliceCols(cat, 0, 2);
        ag::Variable right = ag::SliceCols(cat, 2, 5);
        return ag::Add(ag::SumAll(ag::Mul(left, left)),
                       ag::SumAll(ag::Mul(right, right)));
      },
      {RandomParam(3, 2, 16), RandomParam(3, 3, 17)});
}

TEST(AutogradTest, ScaleRowsGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        ag::Variable out = ag::ScaleRows(p[0], p[1]);
        return ag::SumAll(ag::Mul(out, out));
      },
      {RandomParam(4, 3, 18), RandomParam(4, 1, 19)});
}

TEST(AutogradTest, ScaleScalarGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        ag::Variable out = ag::ScaleScalar(p[0], p[1]);
        return ag::SumAll(ag::Mul(out, out));
      },
      {RandomParam(3, 3, 20), RandomParam(1, 1, 21)});
}

TEST(AutogradTest, SoftmaxRowsGradients) {
  CheckGradients(
      [](const std::vector<ag::Variable>& p) {
        ag::Variable s = ag::SoftmaxRows(p[0]);
        // Weighted sum so the gradient is not trivially zero.
        return ag::SumAll(ag::Mul(s, p[1]));
      },
      {RandomParam(3, 4, 22), RandomParam(3, 4, 23)});
}

TEST(AutogradTest, MaskedCrossEntropyGradients) {
  const std::vector<int64_t> labels = {0, 2, 1, 2};
  const std::vector<int64_t> mask = {0, 2, 3};
  CheckGradients(
      [&](const std::vector<ag::Variable>& p) {
        return ag::MaskedCrossEntropy(p[0], labels, mask);
      },
      {RandomParam(4, 3, 26)});
}

TEST(AutogradTest, ChainedGraphGradients) {
  // A miniature GCN-like composite: relu(A relu(X W1) W2) -> CE loss.
  SparseMatrix a = SparseMatrix::FromTriplets(
      3, 3,
      {{0, 0, 0.5f}, {0, 1, 0.5f}, {1, 1, 1.0f}, {2, 0, 0.3f}, {2, 2, 0.7f}});
  Rng rng(27);
  Matrix x = Matrix::RandomNormal(3, 4, &rng);
  const std::vector<int64_t> labels = {0, 1, 1};
  const std::vector<int64_t> mask = {0, 1, 2};
  CheckGradients(
      [&](const std::vector<ag::Variable>& p) {
        ag::Variable h = ag::Relu(ag::MatMul(ag::Constant(x), p[0]));
        ag::Variable logits = ag::MatMul(ag::SpMM(a, h), p[1]);
        return ag::MaskedCrossEntropy(logits, labels, mask);
      },
      {RandomParam(4, 5, 28), RandomParam(5, 2, 29)});
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  ag::Variable p = RandomParam(2, 2, 30);
  ag::Variable loss1 = ag::SumAll(p);
  ag::Backward(loss1);
  Matrix first = p.grad();
  ag::Variable loss2 = ag::SumAll(p);
  ag::Backward(loss2);
  EXPECT_TRUE(AllClose(p.grad(), Scale(first, 2.0f)));
  p.ZeroGrad();
  EXPECT_TRUE(p.grad().empty());
}

TEST(AutogradTest, ConstantsReceiveNoGradient) {
  ag::Variable c = ag::Constant(Matrix(2, 2, 1.0f));
  ag::Variable p = RandomParam(2, 2, 31);
  ag::Variable loss = ag::SumAll(ag::Mul(c, p));
  ag::Backward(loss);
  EXPECT_TRUE(c.grad().empty());
  EXPECT_FALSE(p.grad().empty());
}

TEST(AutogradTest, DropoutEvalIsIdentity) {
  Rng rng(32);
  ag::Variable p = RandomParam(5, 5, 33);
  ag::Variable out = ag::Dropout(p, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(AllClose(out.value(), p.value()));
}

TEST(AutogradTest, DropoutTrainScalesSurvivors) {
  Rng rng(34);
  ag::Variable p = ag::Parameter(Matrix(40, 40, 1.0f));
  ag::Variable out = ag::Dropout(p, 0.25f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < out.value().size(); ++i) {
    const float v = out.value().data()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5f);
    }
  }
  const double drop_rate = static_cast<double>(zeros) / out.value().size();
  EXPECT_NEAR(drop_rate, 0.25, 0.05);
}

TEST(AutogradTest, DropoutMatchesDropoutWithPrecomputedMask) {
  // Dropout(p, ...) is defined as DropoutWithMask over a mask drawn from
  // the same Rng stream, so the two paths must agree bit-for-bit. The
  // split exists so gradcheck can freeze the mask across FD probes.
  ag::Variable p = RandomParam(6, 4, 36);
  Rng mask_rng_a(37), mask_rng_b(37);
  const Matrix mask = ag::DropoutMask(6, 4, 0.3f, &mask_rng_a);
  ag::Variable via_mask = ag::DropoutWithMask(p, mask);
  ag::Variable via_dropout = ag::Dropout(p, 0.3f, /*training=*/true,
                                         &mask_rng_b);
  EXPECT_TRUE(AllClose(via_mask.value(), via_dropout.value(), 0.0f));
}

TEST(AutogradTest, DiamondGraphAccumulatesBothPaths) {
  // loss = sum(p + p): gradient must be 2 everywhere (two paths to p).
  ag::Variable p = RandomParam(2, 3, 35);
  ag::Variable loss = ag::SumAll(ag::Add(p, p));
  ag::Backward(loss);
  EXPECT_TRUE(AllClose(p.grad(), Matrix(2, 3, 2.0f)));
}

// Shape checks fire at node construction, not first use, so a bad graph
// aborts where it is built.
class AutogradDeathTest : public ::testing::Test {
 protected:
  AutogradDeathTest() {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(AutogradDeathTest, OpConstructionRejectsShapeMismatches) {
  ag::Variable a = ag::Parameter(Matrix(2, 3));
  ag::Variable b = ag::Parameter(Matrix(4, 2));
  EXPECT_DEATH(ag::MatMul(a, b), "MatMul shape mismatch");
  EXPECT_DEATH(ag::MatMulTransposeA(a, b), "MatMulTransposeA shape mismatch");
  EXPECT_DEATH(ag::Add(a, b), "Check failed");
  EXPECT_DEATH(ag::AddBias(a, ag::Parameter(Matrix(1, 2))), "Check failed");
}

TEST_F(AutogradDeathTest, SpMMRejectsOperandWithWrongRowCount) {
  SparseMatrix op = SparseMatrix::Identity(3);
  ag::Variable x = ag::Parameter(Matrix(4, 2));
  EXPECT_DEATH(ag::SpMM(op, x), "SpMM shape mismatch");
}

TEST_F(AutogradDeathTest, DefaultConstructedVariableAccessorsAbort) {
#if ADPA_DCHECK_IS_ON
  ag::Variable v;
  EXPECT_DEATH(v.value(), "default-constructed Variable");
  EXPECT_DEATH(v.grad(), "default-constructed Variable");
  EXPECT_DEATH(v.requires_grad(), "default-constructed Variable");
  EXPECT_DEATH(v.rows(), "default-constructed Variable");
  EXPECT_DEATH(v.cols(), "default-constructed Variable");
  EXPECT_DEATH(v.mutable_value(), "default-constructed Variable");
#else
  GTEST_SKIP() << "accessor guards are ADPA_DCHECKs, off in this build";
#endif
}

}  // namespace
}  // namespace adpa
