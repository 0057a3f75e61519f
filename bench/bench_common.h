#pragma once
// Shared plumbing for the per-table/figure bench binaries. Every binary
// accepts:
//   --repeats=N   seeded repetitions per cell, 1..2^31-1 (default varies
//                 per bench)
//   --epochs=N    max training epochs, 0..2^31-1
//   --patience=N  early-stopping patience, 0..2^31-1 (0 disables)
//   --scale=F     node-count multiplier for the registry datasets, a real
//                 > 0
//   --threads=N   parallel runtime width (0..1024, 0 = auto; results are
//                 identical for any value, see src/core/parallel.h)
//   --simd_level=<portable|avx2|avx512>
//                 kernel dispatch level, as ADPA_SIMD_LEVEL sets it
// Defaults are sized for a single-core sweep; raise them (e.g. --repeats=10
// --epochs=300 --scale=1.5) to approach the paper's full protocol.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "src/core/flags.h"
#include "src/core/logging.h"
#include "src/core/strings.h"
#include "src/data/benchmarks.h"
#include "src/models/factory.h"
#include "src/train/experiment.h"
#include "src/train/trainer.h"
#include "tools/runtime_flags.h"

namespace adpa {
namespace bench {

struct BenchOptions {
  int repeats = 3;
  int epochs = 80;
  int patience = 20;
  double scale = 0.5;
};

inline int BenchUsage() {
  std::fprintf(stderr,
               "usage: <bench> [--repeats=N --epochs=N --patience=N "
               "--scale=F --threads=N\n"
               "                --simd_level=<portable|avx2|avx512>]\n");
  return 2;
}

/// Reads the flags above over `defaults`. Any other value or flag, or a
/// positional argument, prints an error line and the usage and exits 2
/// before the bench starts; a level this CPU cannot run exits 1.
inline BenchOptions ParseBenchOptions(int argc, char** argv,
                                      BenchOptions defaults) {
  Flags flags;
  if (!flags.Parse(argc, argv)) std::exit(BenchUsage());
  if (const int code = ApplyRuntimeFlags(flags, BenchUsage); code != 0) {
    std::exit(code);
  }
  // RunRepeated needs at least one repetition.
  const std::optional<int64_t> repeats =
      CountFlag(flags, "repeats", defaults.repeats, 1, kMaxCount);
  const std::optional<int64_t> epochs =
      CountFlag(flags, "epochs", defaults.epochs, 0, kMaxCount);
  const std::optional<int64_t> patience =
      CountFlag(flags, "patience", defaults.patience, 0, kMaxCount);
  const std::optional<double> scale = RealFlag(
      flags, "scale", defaults.scale, [](double v) { return v > 0.0; },
      "scale > 0");
  if (!repeats || !epochs || !patience || !scale || !AllFlagsRead(flags)) {
    std::exit(BenchUsage());
  }
  return {.repeats = static_cast<int>(*repeats),
          .epochs = static_cast<int>(*epochs),
          .patience = static_cast<int>(*patience),
          .scale = *scale};
}

inline TrainConfig MakeTrainConfig(const BenchOptions& options) {
  TrainConfig config;
  config.max_epochs = options.epochs;
  config.patience = options.patience;
  return config;
}

/// Per-model hyperparameters, standing in for the paper's Optuna search
/// (Sec. V-A): a shared budget with the few per-regime choices that the
/// search reliably lands on.
inline ModelConfig TunedConfig(const std::string& model_name,
                               const BenchmarkSpec& spec) {
  ModelConfig config;
  if (model_name == "ADPA" && spec.expect_directed) {
    // Heterophilous digraphs benefit from one extra propagation step
    // (Fig. 6 shows the curve peaking at K = 3 there).
    config.propagation_steps = 3;
  }
  return config;
}

/// Trains `model_name` on `spec` for `repeats` seeded dataset draws.
/// The U-/D- input convention follows the model type unless forced.
inline RepeatedResult RunCell(const std::string& model_name,
                              const BenchmarkSpec& spec,
                              const BenchOptions& options,
                              int force_undirect = -1) {
  const bool undirect = force_undirect >= 0
                            ? force_undirect != 0
                            : ShouldUndirectInput(model_name);
  Result<RepeatedResult> result = RunRepeated(
      model_name,
      [&spec, &options](uint64_t seed) {
        return BuildBenchmark(spec, seed, options.scale);
      },
      TunedConfig(model_name, spec), MakeTrainConfig(options),
      options.repeats, undirect);
  ADPA_CHECK(result.ok()) << model_name << " on " << spec.name << ": "
                          << result.status().ToString();
  return *result;
}

/// Average rank column used by Tables III/IV: rank of each model within
/// each dataset (1 = best), averaged across datasets.
inline std::vector<double> AverageRanks(
    const std::vector<std::vector<double>>& accuracy_by_model_dataset) {
  const size_t num_models = accuracy_by_model_dataset.size();
  if (num_models == 0) return {};
  const size_t num_datasets = accuracy_by_model_dataset[0].size();
  std::vector<double> ranks(num_models, 0.0);
  for (size_t d = 0; d < num_datasets; ++d) {
    for (size_t m = 0; m < num_models; ++m) {
      double rank = 1.0;
      for (size_t other = 0; other < num_models; ++other) {
        if (other != m && accuracy_by_model_dataset[other][d] >
                              accuracy_by_model_dataset[m][d]) {
          rank += 1.0;
        }
      }
      ranks[m] += rank;
    }
  }
  for (double& r : ranks) r /= static_cast<double>(num_datasets);
  return ranks;
}

}  // namespace bench
}  // namespace adpa

