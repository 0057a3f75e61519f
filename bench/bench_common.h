#pragma once
// Shared plumbing for the per-table/figure bench binaries. Every binary
// accepts:
//   --repeats=N   seeded repetitions per cell (default varies per bench)
//   --epochs=N    max training epochs
//   --patience=N  early-stopping patience (0 disables)
//   --scale=F     node-count multiplier for the registry datasets
//   --threads=N   parallel runtime width (0..1024, 0 = auto; a value
//                 outside that range is ignored; results are identical
//                 for any value, see src/core/parallel.h)
// Defaults are sized for a single-core sweep; raise them (e.g. --repeats=10
// --epochs=300 --scale=1.5) to approach the paper's full protocol.

#include <cstdio>
#include <optional>
#include <string>

#include "src/core/flags.h"
#include "src/core/logging.h"
#include "src/core/parallel.h"
#include "src/core/strings.h"
#include "src/data/benchmarks.h"
#include "src/models/factory.h"
#include "src/train/experiment.h"
#include "src/train/trainer.h"

namespace adpa {
namespace bench {

struct BenchOptions {
  int repeats = 3;
  int epochs = 80;
  int patience = 20;
  double scale = 0.5;
};

inline BenchOptions ParseBenchOptions(int argc, char** argv,
                                      BenchOptions defaults) {
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "bad flags; using defaults\n");
    return defaults;
  }
  BenchOptions options = defaults;
  options.repeats =
      static_cast<int>(flags.GetInt("repeats", defaults.repeats));
  options.epochs = static_cast<int>(flags.GetInt("epochs", defaults.epochs));
  options.patience =
      static_cast<int>(flags.GetInt("patience", defaults.patience));
  options.scale = flags.GetDouble("scale", defaults.scale);
  if (flags.Has("threads")) {
    const std::optional<int> threads =
        ParseThreadCount(flags.GetString("threads", ""));
    if (threads.has_value()) {
      SetNumThreads(*threads);
    } else {
      std::fprintf(stderr, "bad --threads; using the automatic width\n");
    }
  }
  return options;
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

