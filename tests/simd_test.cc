// Dispatch-parity suite for the runtime SIMD kernel levels (DESIGN.md §12).
//
// The determinism contract under test, for every level the host CPU
// supports:
//   1. per-level bitwise thread-count invariance — the same level produces
//      identical bits at 1, 2, and 8 threads for the dense MatMul family,
//      SpMM and SpMMᵀ;
//   2. SpMM and SpMMᵀ equal the per-element loops of tests/gemm_oracle.h
//      bit for bit at every level (one rounding per term), so every level
//      and build gives the same bits; the dense MatMul family agrees across
//      levels to relative error (the AVX-512 float runs, the lane-split dot
//      chains);
//   3. the elementwise kernels (one op per element, axpy one FMA) equal
//      the oracle chain bit for bit at every level;
//   4. the full InferenceSession forward obeys 1 and 2 end to end;
//   5. the backward GEMM layouts keep their per-element chains: at every
//      level and thread count MatMulTransposeA and MatMulTransposeB equal
//      the per-element loops of tests/gemm_oracle.h bit for bit.
//
// Plus behavioral tests for the simd:: API surface and the serve-path
// Workspace slot pool.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/graph/sparse_matrix.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/serve/engine.h"
#include "src/tensor/matrix.h"
#include "src/tensor/simd.h"
#include "src/tensor/workspace.h"
#include "src/train/trainer.h"
#include "tests/gemm_oracle.h"

namespace adpa {
namespace {

/// Restores the dispatch level and thread count on scope exit so parity
/// tests cannot leak a pinned level into unrelated tests.
class DispatchGuard {
 public:
  DispatchGuard() : level_(simd::ActiveLevel()), threads_(GetNumThreads()) {}
  ~DispatchGuard() {
    simd::SetLevel(level_);
    SetNumThreads(threads_);
  }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  simd::Level level_;
  int threads_;
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

/// Largest elementwise |a-b| / max(1, |a|, |b|) — the cross-level agreement
/// metric (absolute for small magnitudes, relative for large ones).
double MaxRelError(const Matrix& a, const Matrix& b) {
  EXPECT_TRUE(a.SameShape(b));
  double worst = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double x = a.data()[i];
    const double y = b.data()[i];
    const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    worst = std::max(worst, std::fabs(x - y) / scale);
  }
  return worst;
}

/// Odd shapes on purpose: rows hit the 4-row (portable/AVX2) and 6-row
/// (AVX-512) GEMM tile tails, columns hit the 32-column slab tail and the
/// 8/16-lane vector tails.
constexpr int64_t kN = 67;
constexpr int64_t kK = 45;
constexpr int64_t kM = 53;

SparseMatrix RandomSparse(int64_t rows, int64_t cols, double density,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (rng.Uniform() < density) {
        triplets.push_back({r, c, static_cast<float>(rng.Normal())});
      }
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST(SimdTest, LevelNamesRoundTrip) {
  for (simd::Level level : {simd::Level::kPortable, simd::Level::kAvx2,
                            simd::Level::kAvx512}) {
    simd::Level parsed;
    ASSERT_TRUE(simd::ParseLevel(simd::LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  simd::Level parsed = simd::Level::kAvx2;
  EXPECT_FALSE(simd::ParseLevel("bogus", &parsed));
  EXPECT_EQ(parsed, simd::Level::kAvx2);  // left untouched on failure
  EXPECT_FALSE(simd::ParseLevel("", &parsed));
}

TEST(SimdTest, SupportedLevelsStartAtPortableAndAscend) {
  const std::vector<simd::Level> levels = simd::SupportedLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kPortable);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
    EXPECT_TRUE(simd::LevelSupported(levels[i]));
  }
}

TEST(SimdTest, KernelsMatchesActiveLevelTable) {
  DispatchGuard guard;
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    EXPECT_EQ(simd::ActiveLevel(), level);
    EXPECT_EQ(&simd::Kernels(), &simd::KernelsFor(level));
  }
}

TEST(SimdTest, DenseMatMulFamilyIsThreadCountInvariantPerLevel) {
  DispatchGuard guard;
  Rng rng(11);
  const Matrix a = Matrix::RandomNormal(kN, kK, &rng);
  const Matrix b = Matrix::RandomNormal(kK, kM, &rng);
  const Matrix at = Matrix::RandomNormal(kK, kN, &rng);
  const Matrix bt = Matrix::RandomNormal(kM, kK, &rng);
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    SetNumThreads(1);
    const Matrix mm1 = MatMul(a, b);
    const Matrix ta1 = MatMulTransposeA(at, b);
    const Matrix tb1 = MatMulTransposeB(a, bt);
    for (int threads : {2, 8}) {
      SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(MatMul(a, b), mm1))
          << simd::LevelName(level) << " MatMul @" << threads << "T";
      EXPECT_TRUE(BitwiseEqual(MatMulTransposeA(at, b), ta1))
          << simd::LevelName(level) << " MatMulTransposeA @" << threads << "T";
      EXPECT_TRUE(BitwiseEqual(MatMulTransposeB(a, bt), tb1))
          << simd::LevelName(level) << " MatMulTransposeB @" << threads << "T";
    }
  }
}

TEST(SimdTest, DenseMatMulFamilyAgreesAcrossLevels) {
  DispatchGuard guard;
  Rng rng(12);
  const Matrix a = Matrix::RandomNormal(kN, kK, &rng);
  const Matrix b = Matrix::RandomNormal(kK, kM, &rng);
  const Matrix at = Matrix::RandomNormal(kK, kN, &rng);
  const Matrix bt = Matrix::RandomNormal(kM, kK, &rng);
  simd::SetLevel(simd::Level::kPortable);
  const Matrix mm_ref = MatMul(a, b);
  const Matrix ta_ref = MatMulTransposeA(at, b);
  const Matrix tb_ref = MatMulTransposeB(a, bt);
  for (simd::Level level : simd::SupportedLevels()) {
    if (level == simd::Level::kPortable) continue;
    simd::SetLevel(level);
    // MatMul's AVX-512 level accumulates fixed 128-step float runs into
    // double accumulators (simd.h), so its divergence from portable is a
    // few float ulps — bounded by the run length, not by k.
    EXPECT_LT(MaxRelError(MatMul(a, b), mm_ref), 1e-5)
        << simd::LevelName(level);
    // The transpose variants accumulate in double at every level, so the
    // only divergence is the final double->float rounding of sums whose
    // contraction order differs: half-ulp-scale wiggle, not 1e-3 drift.
    EXPECT_LT(MaxRelError(MatMulTransposeA(at, b), ta_ref), 1e-6)
        << simd::LevelName(level);
    EXPECT_LT(MaxRelError(MatMulTransposeB(a, bt), tb_ref), 1e-6)
        << simd::LevelName(level);
  }
}

/// Inputs that tell accumulation chains apart. Random normals cannot:
/// after the final round to float, two double chains almost always agree.
enum class GemmInput { kRandom, kReluZeroed, kCancelling };

Matrix MakeGemmInput(int64_t rows, int64_t cols, GemmInput kind, Rng* rng) {
  Matrix out = Matrix::RandomNormal(rows, cols, rng);
  for (int64_t i = 0; i < out.size(); ++i) {
    float& v = out.data()[i];
    const double u = rng->Uniform();
    if (kind == GemmInput::kReluZeroed && v < 0.0f) {
      v = u < 0.5 ? 0.0f : -0.0f;  // exact zeros of both signs
    } else if (kind == GemmInput::kCancelling && u < 0.5) {
      // ±2^30: products of 2^60 cancel, and which small terms share a
      // partial sum with them decides the rounded result.
      v = u < 0.25 ? 1073741824.0f : -1073741824.0f;
    }
  }
  return out;
}

TEST(SimdTest, BackwardGemmsMatchTheOracleBitwise) {
  DispatchGuard guard;
  Rng rng(23);
  const std::vector<simd::Level> levels = simd::SupportedLevels();
  int failures = 0;
  auto expect_bitwise = [&](const Matrix& got, const Matrix& want,
                            const char* what, simd::Level level, int threads,
                            int64_t n, int64_t k, int64_t m, int kind) {
    if (BitwiseEqual(got, want)) return;
    if (++failures <= 10) {
      ADD_FAILURE() << what << " at " << simd::LevelName(level) << ", "
                    << threads << " threads, n=" << n << " k=" << k
                    << " m=" << m << " input " << kind;
    }
  };
  // Every tail of every level: k around the 8 and 16 dot lanes, m around
  // the 4/8/16/32-column panels, n around the row tiles. n = 1100 is past
  // two row grains at k = 67, so MatMulTransposeB is split over threads
  // too; MatMulTransposeA splits whenever k spans two 32-column blocks.
  for (int64_t n : {1, 3, 17, 300, 1100}) {
    for (int64_t k : {1, 7, 8, 15, 16, 17, 64, 67}) {
      for (int64_t m : {1, 7, 8, 9, 31, 32, 33, 64}) {
        if (n == 1100 && (k != 67 || (m != 9 && m != 64))) continue;
        for (GemmInput kind : {GemmInput::kRandom, GemmInput::kReluZeroed,
                               GemmInput::kCancelling}) {
          const Matrix a = MakeGemmInput(n, k, kind, &rng);
          const Matrix bt = MakeGemmInput(m, k, kind, &rng);  // a * btᵀ
          const Matrix b = MakeGemmInput(n, m, kind, &rng);   // aᵀ * b
          const Matrix want_at = oracle::MatMulTransposeA(a, b);
          std::vector<Matrix> want_bt;
          for (simd::Level level : levels) {
            want_bt.push_back(
                oracle::MatMulTransposeB(a, bt, oracle::DotLanes(level)));
          }
          const int kind_id = static_cast<int>(kind);
          for (int threads : {1, 2, 4}) {
            SetNumThreads(threads);
            for (size_t l = 0; l < levels.size(); ++l) {
              simd::SetLevel(levels[l]);
              expect_bitwise(MatMulTransposeA(a, b), want_at,
                             "MatMulTransposeA", levels[l], threads, n, k, m,
                             kind_id);
              expect_bitwise(MatMulTransposeB(a, bt), want_bt[l],
                             "MatMulTransposeB", levels[l], threads, n, k, m,
                             kind_id);
            }
          }
          // Properties the kernels keep: MatMulTransposeA is one chain at
          // every level; at portable the A*Bᵀ chain is MatMul's; and MatMul
          // at AVX2 is portable's sequential chain (AVX-512 MatMul is not).
          SetNumThreads(1);
          simd::SetLevel(simd::Level::kPortable);
          const Matrix bt_t = bt.Transposed();
          const Matrix portable_at = MatMulTransposeA(a, b);
          const Matrix portable_mm = MatMul(a, bt_t);
          expect_bitwise(MatMulTransposeB(a, bt), portable_mm,
                         "portable MatMulTransposeB vs MatMul(a, bᵀ)",
                         simd::Level::kPortable, 1, n, k, m, kind_id);
          for (simd::Level level : levels) {
            simd::SetLevel(level);
            expect_bitwise(MatMulTransposeA(a, b), portable_at,
                           "MatMulTransposeA vs portable", level, 1, n, k, m,
                           kind_id);
            if (level == simd::Level::kAvx2) {
              expect_bitwise(MatMul(a, bt_t), portable_mm,
                             "AVX2 MatMul vs portable", level, 1, n, k, m,
                             kind_id);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(failures, 0);
}

TEST(SimdTest, SpmmAndTransposeAreThreadCountInvariantPerLevel) {
  DispatchGuard guard;
  Rng rng(13);
  const SparseMatrix op = RandomSparse(kN, kN, 0.08, 21);
  const Matrix x = Matrix::RandomNormal(kN, kM, &rng);
  const Matrix want_spmm = oracle::Spmm(op, x);
  const Matrix want_scatter = oracle::SpmmTransposed(op, x);
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    SetNumThreads(1);
    const Matrix spmm1 = op.Multiply(x);
    const Matrix scatter1 = op.MultiplyTransposed(x);
    EXPECT_TRUE(BitwiseEqual(spmm1, want_spmm))
        << simd::LevelName(level) << " SpMM vs oracle";
    EXPECT_TRUE(BitwiseEqual(scatter1, want_scatter))
        << simd::LevelName(level) << " SpMM^T vs oracle";
    for (int threads : {2, 8}) {
      SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(op.Multiply(x), spmm1))
          << simd::LevelName(level) << " SpMM @" << threads << "T";
      EXPECT_TRUE(BitwiseEqual(op.MultiplyTransposed(x), scatter1))
          << simd::LevelName(level) << " SpMM^T @" << threads << "T";
    }
  }
}

TEST(SimdTest, ElementwiseKernelsAreBitwiseIdenticalAcrossLevels) {
  DispatchGuard guard;
  Rng rng(16);
  const Matrix a0 = Matrix::RandomNormal(37, 41, &rng);
  const Matrix b0 = Matrix::RandomNormal(37, 41, &rng);
  const Matrix scales = Matrix::RandomNormal(37, 1, &rng);
  Matrix want = a0;
  oracle::Add(&want, b0);
  oracle::Mul(&want, b0);
  oracle::Sub(&want, b0);
  oracle::Scale(&want, 1.7f);
  oracle::Axpy(&want, b0, -0.3f);
  want = oracle::ScaleRows(want, scales);
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    Matrix a = a0;
    a.AddInPlace(b0);
    a.MulInPlace(b0);
    a.SubInPlace(b0);
    a.ScaleInPlace(1.7f);
    a.AddScaledInPlace(b0, -0.3f);
    // One op per element at every level, rounded once: no order to choose,
    // so every level gives the oracle's bits.
    EXPECT_TRUE(BitwiseEqual(ScaleRows(a, scales), want))
        << simd::LevelName(level);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the full serve-path forward per level.

Dataset TinyDataset(uint64_t seed = 5) {
  DsbmConfig config;
  config.num_nodes = 60;
  config.num_classes = 3;
  config.avg_out_degree = 4.0;
  config.class_transition = HomophilousTransition(3, 0.7);
  config.feature_dim = 6;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed);
  Split split =
      std::move(SplitFractions(ds.labels, 3, 0.5, 0.25, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

TEST(SimdTest, InferenceSessionForwardObeysDispatchContract) {
  DispatchGuard guard;
  const Dataset dataset = TinyDataset();
  ModelConfig config;
  config.hidden = 16;
  Rng rng(21);
  ModelPtr model = std::move(CreateModel("ADPA", dataset, config, &rng)).value();
  const Checkpoint checkpoint =
      MakeCheckpoint(*model, "ADPA", dataset, config, TrainConfig());

  Matrix portable_logits;
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    // Create per level so the Eq. 9 precompute runs at the level under test.
    serve::InferenceSession session =
        std::move(serve::InferenceSession::Create(checkpoint, dataset).value());
    SetNumThreads(1);
    const Matrix logits1 = session.ForwardAll();
    for (int threads : {2, 8}) {
      SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(session.ForwardAll(), logits1))
          << simd::LevelName(level) << " ForwardAll @" << threads << "T";
    }
    // Subset forwards must match the full forward bit for bit at every
    // level (row-decomposability survives the fused kernels).
    const std::vector<int64_t> nodes = {0, 7, 31, 59};
    const Matrix subset = std::move(session.ForwardRows(nodes).value());
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(std::memcmp(subset.Row(static_cast<int64_t>(i)),
                            logits1.Row(nodes[i]),
                            static_cast<size_t>(logits1.cols()) *
                                sizeof(float)),
                0)
          << simd::LevelName(level) << " ForwardRows row " << i;
    }
    if (level == simd::Level::kPortable) {
      portable_logits = logits1;
    } else {
      EXPECT_LT(MaxRelError(logits1, portable_logits), 1e-4)
          << simd::LevelName(level) << " diverged from portable";
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace slot pool (src/tensor/workspace.h) — the serve hot path relies
// on these invariants for its allocation-free forward.

TEST(WorkspaceTest, AcquireReturnsZeroedSlotOfRequestedShape) {
  Workspace ws;
  Matrix* slot = ws.Acquire(3, 4);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->rows(), 3);
  EXPECT_EQ(slot->cols(), 4);
  for (int64_t i = 0; i < slot->size(); ++i) EXPECT_EQ(slot->data()[i], 0.0f);
}

TEST(WorkspaceTest, ResetReusesSlotsWithStableAddressesAndZeroedContents) {
  Workspace ws;
  Matrix* first = ws.Acquire(5, 7);
  Matrix* second = ws.Acquire(2, 2);
  first->Row(0)[0] = 42.0f;
  EXPECT_EQ(ws.slots(), 2);

  ws.Reset();
  Matrix* reused = ws.Acquire(5, 7);
  EXPECT_EQ(reused, first);  // slot identity is stable across Reset
  EXPECT_EQ(reused->Row(0)[0], 0.0f);  // re-acquire re-zeroes
  EXPECT_EQ(ws.Acquire(2, 2), second);
  EXPECT_EQ(ws.slots(), 2);  // no new slots were created

  // A different shape on re-acquire is fine: the slot resizes in place.
  ws.Reset();
  Matrix* reshaped = ws.Acquire(1, 9);
  EXPECT_EQ(reshaped, first);
  EXPECT_EQ(reshaped->rows(), 1);
  EXPECT_EQ(reshaped->cols(), 9);
}

TEST(WorkspaceTest, MatrixResizeReshapesAndZeroes) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  m.Resize(3, 2);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

}  // namespace
}  // namespace adpa
