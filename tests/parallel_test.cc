#include "src/core/parallel.h"

#include <atomic>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/random.h"
#include "src/graph/patterns.h"
#include "src/graph/sparse_matrix.h"
#include "src/tensor/matrix.h"

namespace adpa {
namespace {

/// Every test restores automatic thread detection so the fixture never
/// leaks a pool configuration into other test suites.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(0); }
};

TEST_F(ParallelTest, PoolStartupShutdownAndReconfigure) {
  for (int n : {1, 2, 4, 8, 3}) {
    SetNumThreads(n);
    EXPECT_EQ(GetNumThreads(), n);
    std::atomic<int64_t> visited{0};
    ParallelFor(0, 1000, 1, [&](int64_t begin, int64_t end) {
      visited.fetch_add(end - begin);
    });
    EXPECT_EQ(visited.load(), 1000);
  }
  SetNumThreads(0);
  EXPECT_GE(GetNumThreads(), 1);
}

TEST(ParseThreadCountTest, AcceptsDecimalZeroThroughTheCapOnly) {
  // Parsing only: an out-of-range width must never reach SetNumThreads, the
  // environment or a tool, where a wrong bound would start that many threads.
  struct Case {
    const char* text;
    std::optional<int> expected;
  };
  const Case cases[] = {
      {"0", 0},
      {"4", 4},
      {"1024", 1024},
      {"1025", std::nullopt},
      {"-1", std::nullopt},
      {"", std::nullopt},
      {"abc", std::nullopt},
      {"2.5", std::nullopt},
      {"4294967297", std::nullopt},  // 2^32 + 1: narrowed to 1 by an int cast
      {"99999999999999999999", std::nullopt},  // past int64
  };
  ASSERT_EQ(kMaxThreads, 1024);
  for (const Case& c : cases) {
    EXPECT_EQ(ParseThreadCount(c.text), c.expected) << '"' << c.text << '"';
  }
}

TEST_F(ParallelTest, EmptyAndReversedRangesNeverInvokeTheBody) {
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(3, 1, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(0, 0, 0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  SetNumThreads(8);
  for (int64_t total : {1, 2, 3, 7, 64, 1001}) {
    for (int64_t grain : {1, 7, 100}) {
      std::vector<int> counts(total, 0);
      ParallelFor(0, total, grain, [&](int64_t begin, int64_t end) {
        ASSERT_LE(0, begin);
        ASSERT_LT(begin, end);
        ASSERT_LE(end, total);
        for (int64_t i = begin; i < end; ++i) ++counts[i];
      });
      for (int64_t i = 0; i < total; ++i) {
        EXPECT_EQ(counts[i], 1) << "index " << i << " of " << total
                                << " grain " << grain;
      }
    }
  }
}

TEST_F(ParallelTest, RespectsGrainAsMinimumChunkSize) {
  SetNumThreads(8);
  ParallelFor(0, 100, 30, [&](int64_t begin, int64_t end) {
    // Only the last chunk may be smaller than the grain, and with a
    // balanced partition of 100 over at most 3 chunks every chunk has at
    // least 30 indices.
    EXPECT_GE(end - begin, 30);
  });
}

TEST_F(ParallelTest, ExceptionFromWorkerChunkPropagatesToCaller) {
  SetNumThreads(4);
  EXPECT_THROW(ParallelFor(0, 64, 1,
                           [](int64_t begin, int64_t) {
                             if (begin >= 0) {
                               throw std::runtime_error("chunk failure");
                             }
                           }),
               std::runtime_error);
  // The pool must survive a failed job.
  std::atomic<int64_t> visited{0};
  ParallelFor(0, 64, 1, [&](int64_t begin, int64_t end) {
    visited.fetch_add(end - begin);
  });
  EXPECT_EQ(visited.load(), 64);
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  SetNumThreads(4);
  EXPECT_FALSE(InParallelRegion());
  std::atomic<int64_t> inner_total{0};
  ParallelFor(0, 8, 1, [&](int64_t begin, int64_t end) {
    EXPECT_TRUE(InParallelRegion());
    for (int64_t i = begin; i < end; ++i) {
      int64_t local = 0;
      ParallelFor(0, 10, 1, [&](int64_t b, int64_t e) {
        // Inline: the nested body runs on this same thread, so plain
        // accumulation is safe.
        local += e - b;
      });
      inner_total.fetch_add(local);
    }
  });
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(inner_total.load(), 80);
}

// --- Bitwise determinism across thread counts -----------------------------

/// Runs `compute` under each thread count and asserts the resulting dense
/// matrix is bit-for-bit the single-threaded one.
template <typename ComputeFn>
void ExpectBitwiseAcrossThreadCounts(ComputeFn compute) {
  SetNumThreads(1);
  const Matrix reference = compute();
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    const Matrix got = compute();
    ASSERT_EQ(got.rows(), reference.rows());
    ASSERT_EQ(got.cols(), reference.cols());
    EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                          sizeof(float) * reference.size()),
              0)
        << "not bitwise identical at " << threads << " threads";
  }
  SetNumThreads(0);
}

SparseMatrix RandomSparse(int64_t rows, int64_t cols, int64_t nnz, Rng* rng) {
  std::vector<Triplet> triplets;
  triplets.reserve(nnz);
  for (int64_t i = 0; i < nnz; ++i) {
    triplets.push_back({static_cast<int64_t>(rng->Uniform(0.0, 1.0) * rows),
                        static_cast<int64_t>(rng->Uniform(0.0, 1.0) * cols),
                        static_cast<float>(rng->Normal(0.0, 1.0))});
  }
  for (Triplet& t : triplets) {
    t.row = std::min(t.row, rows - 1);
    t.col = std::min(t.col, cols - 1);
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST_F(ParallelTest, MatMulFamilyIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(7);
  const Matrix a = Matrix::RandomNormal(129, 67, &rng);
  const Matrix b = Matrix::RandomNormal(67, 93, &rng);
  const Matrix same_rows = Matrix::RandomNormal(129, 93, &rng);  // aᵀ·this
  const Matrix same_cols = Matrix::RandomNormal(93, 67, &rng);   // a·thisᵀ
  ExpectBitwiseAcrossThreadCounts([&] { return MatMul(a, b); });
  ExpectBitwiseAcrossThreadCounts(
      [&] { return MatMulTransposeA(a, same_rows); });
  ExpectBitwiseAcrossThreadCounts(
      [&] { return MatMulTransposeB(a, same_cols); });
}

TEST_F(ParallelTest, ElementwiseAndSoftmaxAreThreadCountInvariant) {
  Rng rng(13);
  const Matrix a = Matrix::RandomNormal(83, 59, &rng);
  const Matrix b = Matrix::RandomNormal(83, 59, &rng);
  ExpectBitwiseAcrossThreadCounts([&] { return SoftmaxRows(a); });
  ExpectBitwiseAcrossThreadCounts([&] { return a.Transposed(); });
  ExpectBitwiseAcrossThreadCounts([&] {
    Matrix out = a;
    out.AddScaledInPlace(b, 0.37f);
    out.ApplyFn([](float v) { return v * v; });
    return out;
  });
}

TEST_F(ParallelTest, SpmmIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(17);
  const SparseMatrix s = RandomSparse(210, 140, 1500, &rng);
  const Matrix x = Matrix::RandomNormal(140, 23, &rng);
  const Matrix xt = Matrix::RandomNormal(210, 23, &rng);
  ExpectBitwiseAcrossThreadCounts([&] { return s.Multiply(x); });
  ExpectBitwiseAcrossThreadCounts([&] { return s.MultiplyTransposed(xt); });
}

TEST_F(ParallelTest, SparseSparseProductIsIdenticalAcrossThreadCounts) {
  Rng rng(19);
  const SparseMatrix a = RandomSparse(180, 120, 1200, &rng);
  const SparseMatrix b = RandomSparse(120, 160, 1000, &rng);
  SetNumThreads(1);
  const SparseMatrix reference = a.MultiplySparse(b, /*max_row_nnz=*/24);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    const SparseMatrix got = a.MultiplySparse(b, /*max_row_nnz=*/24);
    EXPECT_EQ(got.row_ptr(), reference.row_ptr());
    EXPECT_EQ(got.col_idx(), reference.col_idx());
    EXPECT_EQ(got.values(), reference.values());
  }
}

TEST_F(ParallelTest, DpPropagationIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(23);
  const SparseMatrix adjacency = RandomSparse(160, 160, 900, &rng);
  const Matrix features = Matrix::RandomNormal(160, 31, &rng);
  const PatternSet set(adjacency);
  const std::vector<DirectedPattern> patterns = SecondOrderPatterns();
  ExpectBitwiseAcrossThreadCounts([&] {
    std::vector<Matrix> states(patterns.size(), features);
    set.ApplyStep(patterns, &states);
    set.ApplyStep(patterns, &states);  // K = 2 propagation
    return ConcatCols(states);
  });
}

}  // namespace
}  // namespace adpa
