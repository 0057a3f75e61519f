// google-benchmark micro-kernels backing the Sec. IV-D complexity analysis:
// SpMM and DP propagation scale as O(k·K·m·f) and are training-free, dense
// transforms as O(L·n·f²), and the AMUD analysis as O(nnz of the 2-order
// reachabilities).

#include <benchmark/benchmark.h>

#include "src/amud/amud.h"
#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/graph/patterns.h"
#include "src/models/adpa.h"
#include "src/tensor/optimizer.h"
#include "src/tensor/simd.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

Dataset MakeGraph(int64_t nodes, double degree, int64_t features,
                  uint64_t seed = 7) {
  DsbmConfig config;
  config.num_nodes = nodes;
  config.num_classes = 5;
  config.avg_out_degree = degree;
  config.class_transition = CyclicTransition(5, 0.7, 0.1);
  config.feature_dim = features;
  config.seed = seed;
  return std::move(GenerateDsbm(config)).value();
}

void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t f = state.range(1);
  SetNumThreads(static_cast<int>(state.range(2)));
  Dataset ds = MakeGraph(n, 8.0, f);
  const SparseMatrix op =
      NormalizeSymmetric(AddSelfLoops(ds.graph.AdjacencyMatrix()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.Multiply(ds.features));
  }
  state.SetItemsProcessed(state.iterations() * op.nnz() * f);
  SetNumThreads(0);
}
BENCHMARK(BM_SpMM)
    ->ArgNames({"n", "f", "threads"})
    ->Args({1000, 32, 1})
    ->Args({1000, 128, 1})
    ->Args({4000, 32, 1})
    ->Args({4000, 128, 1})
    ->Args({4000, 128, 2})
    ->Args({4000, 128, 4})
    ->Args({4000, 128, 8});

void BM_DenseMatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  SetNumThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(n, 64, &rng);
  Matrix b = Matrix::RandomNormal(64, 64, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
  SetNumThreads(0);
}
BENCHMARK(BM_DenseMatMul)
    ->ArgNames({"n", "threads"})
    ->Args({500, 1})
    ->Args({2000, 1})
    ->Args({8000, 1})
    ->Args({8000, 2})
    ->Args({8000, 4});

// Verbatim copy of the seed MatMul kernel (naive ikj, float accumulation,
// zero-skip) — the baseline the blocked kernel is measured against.
Matrix SeedMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  for (int64_t i = 0; i < n; ++i) {
    float* out_row = out.Row(i);
    const float* a_row = a.Row(i);
    for (int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) continue;
      const float* b_row = b.Row(p);
      for (int64_t j = 0; j < m; ++j) out_row[j] += a_ip * b_row[j];
    }
  }
  return out;
}

void BM_MatMulSeedKernel512(benchmark::State& state) {
  Rng rng(2);
  Matrix a = Matrix::RandomNormal(512, 512, &rng);
  Matrix b = Matrix::RandomNormal(512, 512, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SeedMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512 * 512);
}
BENCHMARK(BM_MatMulSeedKernel512);

void BM_MatMulBlocked512(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(2);
  Matrix a = Matrix::RandomNormal(512, 512, &rng);
  Matrix b = Matrix::RandomNormal(512, 512, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512 * 512);
  SetNumThreads(0);
}
BENCHMARK(BM_MatMulBlocked512)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

/// Restores the startup dispatch level on destruction so a pinned-level
/// benchmark cannot leak its level into the rest of the suite.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : previous_(simd::ActiveLevel()) {
    simd::SetLevel(level);
  }
  ~ScopedLevel() { simd::SetLevel(previous_); }

 private:
  simd::Level previous_;
};

// Single-thread 512^3 GEMM pinned to each dispatch level. level:0 (portable)
// IS the historical blocked kernel, so the level:2/level:0 items_per_second
// ratio is the headline speedup tracked in BENCH_kernels.json.
void BM_MatMulDispatch512(benchmark::State& state) {
  const simd::Level level = static_cast<simd::Level>(state.range(0));
  if (!simd::LevelSupported(level)) {
    state.SkipWithError("dispatch level not supported by this CPU");
    return;
  }
  ScopedLevel scoped(level);
  state.SetLabel(simd::LevelName(level));
  SetNumThreads(1);
  Rng rng(2);
  Matrix a = Matrix::RandomNormal(512, 512, &rng);
  Matrix b = Matrix::RandomNormal(512, 512, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512 * 512);
  SetNumThreads(0);
}
BENCHMARK(BM_MatMulDispatch512)->ArgNames({"level"})->Arg(0)->Arg(1)->Arg(2);

// The per-hop propagation chain out = (1-alpha) * (A_hat * x) + alpha * x,
// fused into one pass (SparseMatrix::MultiplyAxpbyInto) vs. the unfused
// Multiply + ScaleInPlace + AddScaledInPlace sequence it replaces. Both run
// at the startup dispatch level.
void BM_HopChainUnfused(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t f = state.range(1);
  SetNumThreads(static_cast<int>(state.range(2)));
  Dataset ds = MakeGraph(n, 8.0, f);
  const SparseMatrix op =
      NormalizeSymmetric(AddSelfLoops(ds.graph.AdjacencyMatrix()));
  const float alpha = 0.15f;
  for (auto _ : state) {
    Matrix out = op.Multiply(ds.features);
    out.ScaleInPlace(1.0f - alpha);
    out.AddScaledInPlace(ds.features, alpha);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * op.nnz() * f);
  SetNumThreads(0);
}
BENCHMARK(BM_HopChainUnfused)
    ->ArgNames({"n", "f", "threads"})
    ->Args({4000, 128, 1})
    ->Args({4000, 128, 8});

void BM_HopChainFused(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t f = state.range(1);
  SetNumThreads(static_cast<int>(state.range(2)));
  Dataset ds = MakeGraph(n, 8.0, f);
  const SparseMatrix op =
      NormalizeSymmetric(AddSelfLoops(ds.graph.AdjacencyMatrix()));
  const float alpha = 0.15f;
  Matrix out;  // reused across iterations, as in the serve/propagation paths
  for (auto _ : state) {
    op.MultiplyAxpbyInto(ds.features, ds.features, alpha, 1.0f - alpha, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * op.nnz() * f);
  SetNumThreads(0);
}
BENCHMARK(BM_HopChainFused)
    ->ArgNames({"n", "f", "threads"})
    ->Args({4000, 128, 1})
    ->Args({4000, 128, 8});

// The decoupled-propagation claim: pre-processing cost grows linearly in
// the pattern order budget k and the step count K, independent of training.
void BM_DpPropagation(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  const int steps = static_cast<int>(state.range(1));
  Dataset ds = MakeGraph(2000, 8.0, 64);
  PatternSet patterns(ds.graph.AdjacencyMatrix(), 0.5, false);
  const auto dps = EnumeratePatterns(order);
  for (auto _ : state) {
    std::vector<Matrix> states(dps.size(), ds.features);
    for (int l = 0; l < steps; ++l) {
      patterns.ApplyStep(dps, &states);
    }
    benchmark::DoNotOptimize(states);
  }
}
BENCHMARK(BM_DpPropagation)
    ->Args({1, 2})
    ->Args({2, 2})
    ->Args({2, 4})
    ->Args({3, 2});

void BM_AdpaForward(benchmark::State& state) {
  Dataset ds = MakeGraph(static_cast<int64_t>(state.range(0)), 8.0, 64);
  Rng rng(3);
  ModelConfig config;
  AdpaModel model(ds, config, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(/*training=*/false, &rng));
  }
}
BENCHMARK(BM_AdpaForward)->Arg(500)->Arg(2000);

void BM_AdpaTrainEpoch(benchmark::State& state) {
  Dataset ds = MakeGraph(1000, 8.0, 64);
  std::vector<int64_t> train_idx;
  for (int64_t i = 0; i < ds.num_nodes(); i += 2) train_idx.push_back(i);
  Rng rng(4);
  ModelConfig config;
  AdpaModel model(ds, config, &rng);
  Adam adam(model.Parameters(), 0.01f);
  for (auto _ : state) {
    adam.ZeroGrad();
    ag::Variable logits = model.Forward(true, &rng);
    ag::Variable loss = ag::MaskedCrossEntropy(logits, ds.labels, train_idx);
    ag::Backward(loss);
    adam.Step();
  }
}
BENCHMARK(BM_AdpaTrainEpoch);

void BM_AmudAnalysis(benchmark::State& state) {
  Dataset ds = MakeGraph(static_cast<int64_t>(state.range(0)), 6.0, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAmud(ds.graph, ds.labels, 5));
  }
}
BENCHMARK(BM_AmudAnalysis)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) {
  // Provenance for tools/bench_to_json.sh: numbers from a debug/sanitizer
  // build of THIS code must not land in the checked-in BENCH_*.json files.
  // (The stock "library_build_type" context key only describes how the
  // installed google-benchmark library was compiled.)
#ifdef NDEBUG
  benchmark::AddCustomContext("adpa_build_type", "release");
#else
  benchmark::AddCustomContext("adpa_build_type", "debug");
#endif
  benchmark::AddCustomContext(
      "adpa_simd_level", adpa::simd::LevelName(adpa::simd::ActiveLevel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
