#include "src/train/grid_search.h"

#include <algorithm>

#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/models/adpa.h"
#include "src/models/factory.h"

namespace adpa {

Result<GridSearchResult> GridSearch(const std::string& model_name,
                                    const Dataset& dataset,
                                    const ModelConfig& base_config,
                                    const TrainConfig& train_config,
                                    const GridSearchSpace& space,
                                    uint64_t seed) {
  ADPA_RETURN_IF_ERROR(dataset.Validate());
  if (train_config.checkpoint_every != 0 ||
      !train_config.checkpoint_path.empty() ||
      !train_config.resume_from.empty()) {
    return Status::InvalidArgument(
        "GridSearch: checkpoint_every, checkpoint_path and resume_from must "
        "be unset (parallel trials would share one snapshot)");
  }
  // Degenerate axes fall back to the base configuration's value.
  const std::vector<float> lrs =
      space.learning_rates.empty()
          ? std::vector<float>{train_config.learning_rate}
          : space.learning_rates;
  const std::vector<float> dropouts = space.dropouts.empty()
                                          ? std::vector<float>{base_config
                                                                   .dropout}
                                          : space.dropouts;
  const std::vector<int> steps =
      space.propagation_steps.empty()
          ? std::vector<int>{base_config.propagation_steps}
          : space.propagation_steps;
  const std::vector<int> layers = space.num_layers.empty()
                                      ? std::vector<int>{base_config
                                                             .num_layers}
                                      : space.num_layers;

  // Flatten the grid so trials can be dispatched by index. Trial order (and
  // the per-trial RNG seed derived from it) matches the nested-loop order
  // the search has always used.
  struct TrialSpec {
    float lr;
    float dropout;
    int steps;
    int depth;
  };
  std::vector<TrialSpec> specs;
  specs.reserve(lrs.size() * dropouts.size() * steps.size() * layers.size());
  for (float lr : lrs) {
    for (float dropout : dropouts) {
      for (int k : steps) {
        for (int depth : layers) {
          specs.push_back({lr, dropout, k, depth});
        }
      }
    }
  }
  if (specs.empty()) {
    return Status::InvalidArgument("empty search space");
  }

  // ADPA's Eq. 9 input (graph, features, labels, split, pattern order and
  // selection) is the same for every trial, and step l's blocks do not
  // depend on K: select and propagate once at the largest K, and let each
  // trial alias the first K steps. Neither draws from the trial Rng, so
  // every trial computes the same bits as a standalone CreateModel.
  const bool shared_propagation = model_name == "ADPA";
  std::vector<DirectedPattern> patterns;
  DpLeaves leaves;
  if (shared_propagation) {
    patterns = ChooseDpPatterns(dataset, base_config);
    ModelConfig widest = base_config;
    widest.propagation_steps = *std::max_element(steps.begin(), steps.end());
    leaves = ToDpLeaves(PropagateDp(dataset, widest, patterns));
  }

  // Trials are independent (own RNG, own model) and write disjoint slots,
  // so they run in parallel; the kernels inside each trial then run inline
  // (nested), which by the ParallelFor contract produces the same bits as
  // running them on the full pool. Failures are collected per slot and the
  // first one in trial order is reported, as the serial loop did.
  GridSearchResult result;
  result.trials.resize(specs.size());
  std::vector<Status> failures(specs.size(), Status::OK());
  const int64_t num_trials = static_cast<int64_t>(specs.size());
  ParallelFor(0, num_trials, 1, [&](int64_t begin, int64_t end) {
    for (int64_t trial_index = begin; trial_index < end; ++trial_index) {
      const TrialSpec& spec = specs[trial_index];
      ModelConfig config = base_config;
      config.dropout = spec.dropout;
      config.propagation_steps = spec.steps;
      config.num_layers = spec.depth;
      TrainConfig tc = train_config;
      tc.learning_rate = spec.lr;
      Rng rng(seed * 1000003 + static_cast<uint64_t>(trial_index) * 7919 + 13);
      Result<ModelPtr> model =
          shared_propagation
              ? ModelPtr(new AdpaModel(dataset, config, patterns, leaves, &rng))
              : CreateModel(model_name, dataset, config, &rng);
      if (!model.ok()) {
        failures[trial_index] = model.status();
        continue;
      }
      const TrainResult trained = TrainModel(model->get(), dataset, tc, &rng);
      GridTrial& trial = result.trials[trial_index];
      trial.model_config = config;
      trial.learning_rate = spec.lr;
      trial.val_accuracy = trained.best_val_accuracy;
      trial.test_accuracy = trained.test_accuracy;
    }
  });
  for (const Status& status : failures) {
    ADPA_RETURN_IF_ERROR(status);
  }
  // Winner selection stays serial and in trial order (strict >), so ties —
  // including an all-zero grid — go to the earliest trial.
  result.best = result.trials[0];
  for (const GridTrial& trial : result.trials) {
    if (trial.val_accuracy > result.best.val_accuracy) {
      result.best = trial;
    }
  }
  return result;
}

}  // namespace adpa
