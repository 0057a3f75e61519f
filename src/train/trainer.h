#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/data/dataset.h"
#include "src/models/model.h"
#include "src/tensor/matrix.h"

namespace adpa {

class Rng;

/// Full-batch training configuration shared by every experiment.
struct TrainConfig {
  int max_epochs = 200;
  /// Early stopping: stop after `patience` epochs without a new best
  /// validation accuracy. <= 0 disables early stopping.
  int patience = 30;
  float learning_rate = 0.01f;
  float weight_decay = 5e-4f;
  /// Record per-epoch validation accuracy / training loss (Fig. 5 curves).
  bool record_curves = false;
  /// Abort (ADPA_CHECK) on the first NaN/Inf in the training loss, the
  /// train rows' logits, or any parameter after an optimizer step. Off by
  /// default — it adds a full scan of every checked tensor per epoch — but
  /// invaluable when hunting silent numerical drift (adpa_cli
  /// --check_finite).
  bool check_finite = false;
  /// Run the autograd tape analyzer (src/tensor/tape_analysis.h) on the
  /// first step's loss graph: abort on structural violations and report
  /// parameters unreachable from the loss via
  /// TrainResult::dead_parameters. One-time cost proportional to the tape
  /// size; subsequent epochs rebuild the same graph shape.
  bool verify_tape = false;

  // --- Crash-safe training (DESIGN.md §10). These three fields are resume
  // mechanics, not hyperparameters: they are deliberately NOT serialized
  // into checkpoints, so the final checkpoint of a resumed run is
  // byte-identical to that of an uninterrupted one.

  /// > 0: every `checkpoint_every` epochs, atomically rewrite
  /// `checkpoint_path` with a full training snapshot (weights + Adam
  /// moments + RNG/epoch cursor). A failed snapshot write is a warning,
  /// never a training abort.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  /// Non-empty: restore the snapshot at this path before the first epoch
  /// and continue from its recorded cursor. At the same thread count the
  /// resumed run reaches bitwise-identical final weights.
  std::string resume_from;
};

/// Outcome of one training run. `test_accuracy` is measured at the epoch
/// with the best validation accuracy (standard protocol).
struct TrainResult {
  double best_val_accuracy = 0.0;
  double test_accuracy = 0.0;
  int best_epoch = 0;
  int epochs_run = 0;
  /// Number of parameters unreachable from the loss (only populated when
  /// TrainConfig::verify_tape is set; such parameters never train).
  int64_t dead_parameters = 0;
  /// Epoch the run resumed at (-1 when it started fresh).
  int resumed_from_epoch = -1;
  std::vector<double> val_curve;
  std::vector<double> train_loss_curve;
};

/// Identity stamped into periodic training snapshots so a `resume_from`
/// file is self-describing: adpa_cli rebuilds the model from the snapshot's
/// recorded config and patterns alone, with no flag archaeology.
struct SnapshotContext {
  std::string model_name = "snapshot";
  ModelConfig model_config;
};

/// Fraction of rows in `indices` whose argmax logit equals the label.
double Accuracy(const Matrix& logits, const std::vector<int64_t>& labels,
                const std::vector<int64_t>& indices);

/// Trains `model` on `dataset` with Adam + masked cross-entropy, evaluating
/// on the validation split each epoch and reporting test accuracy at the
/// best validation epoch (the parameters themselves are left at their final
/// state; the best-epoch test metric is captured on the fly). Each step
/// takes Model::TrainLogits of the train rows and each evaluation
/// Model::EvalLogits of the val and test rows, both in increasing node
/// order; the weights, curves and accuracies are bit for bit those of a
/// loop over the full-batch Forward.
TrainResult TrainModel(Model* model, const Dataset& dataset,
                       const TrainConfig& config, Rng* rng);

/// TrainModel plus the crash-safety machinery: honors
/// TrainConfig::{checkpoint_every, checkpoint_path, resume_from} and
/// surfaces snapshot-restore failures as a Status instead of aborting.
/// `context` (optional) stamps the model identity into snapshots. The model
/// must be constructed exactly as in the original run (same config, same
/// patterns) — snapshot restore overwrites its weights and the RNG state,
/// which is what makes resumption bitwise-exact.
Result<TrainResult> TrainModelResumable(Model* model, const Dataset& dataset,
                                        const TrainConfig& config, Rng* rng,
                                        const SnapshotContext* context =
                                            nullptr);

}  // namespace adpa

