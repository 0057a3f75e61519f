#pragma once
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/data/dataset.h"
#include "src/models/model.h"
#include "src/train/trainer.h"

namespace adpa {

/// Deterministic hyperparameter grid, standing in for the paper's Optuna
/// search (Sec. V-A). Empty axes keep the base config's value. The default
/// axes mirror the paper's reported grids: dropout from {0.2,...,0.8},
/// learning rate from {0.1, 0.01, 0.001}, K and layer depth from 1..5.
struct GridSearchSpace {
  std::vector<float> learning_rates = {0.1f, 0.01f, 0.001f};
  std::vector<float> dropouts = {0.2f, 0.4f, 0.6f, 0.8f};
  std::vector<int> propagation_steps = {};
  std::vector<int> num_layers = {};
};

/// One evaluated grid point.
struct GridTrial {
  ModelConfig model_config;
  float learning_rate = 0.0f;
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
};

/// Search outcome: the winning configuration by validation accuracy plus
/// the full trial log (for sensitivity plots).
struct GridSearchResult {
  GridTrial best;
  std::vector<GridTrial> trials;
};

/// Exhaustively evaluates the grid for `model_name` on `dataset` and picks
/// the configuration with the best validation accuracy (ties go to the
/// earlier trial). Trials are numbered in nested-loop order: learning rate
/// outermost, then dropout, then K, then depth innermost. Trial i creates
/// its model and trains it from one `Rng(seed * 1000003 + i * 7919 + 13)`,
/// so the search is fully reproducible and each trial equals an
/// independent CreateModel + TrainModel run with that seed.
///
/// For ADPA, DP selection and Eq. 9 propagation run once, at the grid's
/// largest K, and each trial uses the first K steps of the shared blocks.
///
/// `train_config` must not request snapshots or a resume: parallel trials
/// would share one snapshot path under different hyperparameters.
Result<GridSearchResult> GridSearch(const std::string& model_name,
                                    const Dataset& dataset,
                                    const ModelConfig& base_config,
                                    const TrainConfig& train_config,
                                    const GridSearchSpace& space,
                                    uint64_t seed = 0);

}  // namespace adpa

