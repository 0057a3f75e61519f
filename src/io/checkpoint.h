#pragma once
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/core/random.h"
#include "src/core/status.h"
#include "src/data/dataset.h"
#include "src/graph/patterns.h"
#include "src/models/model.h"
#include "src/tensor/matrix.h"
#include "src/train/trainer.h"

namespace adpa {

/// Versioned binary model persistence (DESIGN.md §9). A trained model no
/// longer dies with the process: `MakeCheckpoint` captures every trainable
/// parameter plus the full model/train hyperparameter record, `Save*` writes
/// a CRC-guarded container, and `TryLoad*` restores it with exact bit-level
/// round-trip guarantees (float32 tensors are stored raw, never formatted).
///
/// Container layout (all integers little-endian):
///
///   offset size  field
///   0      8     magic "ADPACKPT"
///   8      4     u32 format version (currently 2; v1 files still load)
///   12     4     u32 CRC32 (IEEE) of the payload bytes
///   16     8     u64 payload size in bytes
///   24     —     payload (see checkpoint.cc for the field-by-field layout)
///
/// Version history: v2 appends an optional training-resume record (u8
/// has_train_state + TrainState fields) after the tensor list; v1 readers
/// would reject v2 files, v2 readers accept v1 files with no train state.
///
/// Path-based `Save*` goes through AtomicFileWriter (src/io/atomic_file.h):
/// a crash mid-save leaves the previous file intact, never a torn one.
///
/// `TryLoad*` is hostile-input safe in the LoadDatasetFromStream tradition:
/// header fields are attacker-controlled until proven otherwise, so every
/// size is checked against `CheckpointLimits` *before* the allocation it
/// would drive, truncation and corruption come back as a non-OK Status
/// (never a crash), and the CRC check runs before any payload parsing.
/// A size is also a claim the bytes must back: the payload is read in
/// bounded chunks, and no tensor may hold more values than the payload has
/// bytes left, so memory grows with the bytes present, not with the header.

/// Pre-allocation ceilings for checkpoint loading. Defaults fit any
/// realistic model; fuzz targets pass tight limits.
struct CheckpointLimits {
  uint64_t max_payload_bytes = 1ull << 31;  ///< 2 GiB container ceiling
  uint64_t max_name_bytes = 4096;           ///< per string field
  uint32_t max_tensors = 65536;
  int64_t max_tensor_entries = 500'000'000;  ///< per tensor (2 GB of f32)
  uint32_t max_patterns = 4096;
  uint32_t max_pattern_length = 64;
  uint32_t max_curve_points = 1u << 20;  ///< per training-curve vector (v2)
  // ModelConfig magnitude ceilings. A checkpoint's hyperparameters size
  // downstream allocations (hidden × classes weight matrices, per-layer
  // session buffers, per-step propagation blocks), so a hostile header
  // must not be able to smuggle a 10^9 layer count past the reader; the
  // fields are bounded where they enter the process, not where they are
  // eventually multiplied into a buffer shape.
  int64_t max_hidden_dim = 1 << 16;      ///< ModelConfig::hidden
  int32_t max_model_layers = 1024;       ///< ModelConfig::num_layers
  int32_t max_propagation_steps = 4096;  ///< ModelConfig::propagation_steps
  int32_t max_pattern_order = 64;        ///< ModelConfig::pattern_order
  int32_t max_select_patterns = 1 << 16;  ///< ModelConfig::select_patterns
};

/// One named float32 tensor (a model parameter in `Parameters()` order).
struct NamedTensor {
  std::string name;
  Matrix value;
};

/// Mid-training cursor persisted by TrainConfig::checkpoint_every snapshots
/// (format v2): everything beyond the model weights that the epoch loop
/// needs to continue as if it had never stopped — optimizer moments, the
/// RNG stream, and the early-stopping bookkeeping. Restoring all of it is
/// what makes a resumed run reach bitwise-identical final weights.
struct TrainState {
  int32_t next_epoch = 0;  ///< first epoch the resumed run executes
  int32_t epochs_since_best = 0;
  int32_t best_epoch = 0;
  double best_val_accuracy = 0.0;
  double test_accuracy = 0.0;
  RngState rng;
  int64_t optimizer_step_count = 0;
  /// Adam moments in Parameters() order; the two vectors are equal-length.
  std::vector<Matrix> adam_first_moment;
  std::vector<Matrix> adam_second_moment;
  /// Curves accumulated so far (empty unless TrainConfig::record_curves).
  std::vector<double> val_curve;
  std::vector<double> train_loss_curve;
};

/// Everything needed to reconstruct a trained model next to its dataset:
/// identity (model + dataset name, dataset content fingerprint), the full
/// hyperparameter record, the DP pattern set the model actually used (which
/// may be a correlation-selected subset, Sec. IV-B), and the parameters.
struct Checkpoint {
  std::string model_name;
  std::string dataset_name;
  /// DatasetContentHash of the training dataset; loaders use it to refuse
  /// serving a checkpoint against the wrong graph.
  uint64_t dataset_hash = 0;
  ModelConfig model_config;
  TrainConfig train_config;
  std::vector<DirectedPattern> patterns;
  std::vector<NamedTensor> tensors;
  /// Present only in mid-training snapshots (TrainConfig::checkpoint_every);
  /// final checkpoints from completed runs leave it empty, so their bytes
  /// are identical whether or not the run was ever interrupted.
  std::optional<TrainState> train_state;
};

Status SaveCheckpointToStream(const Checkpoint& checkpoint,
                              std::ostream& out);
Status SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path);

/// Never aborts on malformed input; every violation — bad magic, version
/// skew, truncation, CRC mismatch, limit breaches — is a non-OK Status.
ADPA_NODISCARD Result<Checkpoint> TryLoadCheckpointFromStream(
    std::istream& in, const CheckpointLimits& limits = {});
/// As above, from a file. A path that exists but is not a regular file (a
/// FIFO, a device, a directory) is InvalidArgument before it is opened:
/// opening a FIFO with no writer would block the caller without limit.
ADPA_NODISCARD Result<Checkpoint> TryLoadCheckpoint(const std::string& path,
                                     const CheckpointLimits& limits = {});

/// Content fingerprints (FNV-1a 64) for checkpoint validation and the
/// propagation key.
uint64_t MatrixContentHash(const Matrix& matrix);
uint64_t GraphContentHash(const Digraph& graph);
uint64_t DatasetContentHash(const Dataset& dataset);

/// Captures `model`'s current parameters plus the run's configuration into
/// a checkpoint. For ADPA models the selected DP pattern set is recorded so
/// serving replays the exact propagation (correlation-selected subsets
/// depend on training labels and cannot be re-derived at load time).
Checkpoint MakeCheckpoint(const Model& model, const std::string& model_name,
                          const Dataset& dataset,
                          const ModelConfig& model_config,
                          const TrainConfig& train_config);

/// FailedPrecondition unless `dataset` has the content hash the checkpoint
/// was trained on. A zero hash is refused like any other mismatch:
/// MakeCheckpoint never writes one, so it can only come from a damaged or
/// forged file.
Status CheckCheckpointDataset(const Checkpoint& checkpoint,
                              const Dataset& dataset);

/// InvalidArgument unless the checkpoint holds exactly one tensor per entry
/// of `shapes`, each of that shape, in order, so callers can vet a
/// checkpoint before building the model it describes.
Status CheckParameterShapes(const Checkpoint& checkpoint,
                            const std::vector<ParameterShape>& shapes);

/// Copies the checkpoint's tensors into `model`'s parameters (by position),
/// the one binding from checkpoint tensors to weights. Fails, leaving the
/// model untouched, unless CheckParameterShapes passes against the model's
/// Parameters() — the model must be constructed from the same ModelConfig
/// and dataset dimensions — and every value is finite.
Status LoadCheckpointIntoModel(const Checkpoint& checkpoint, Model* model);

/// The inputs that determine one Eq. 9 propagation: graph and feature
/// content hashes plus the propagation config. Two equal keys propagate to
/// the same blocks.
struct PropagationCacheKey {
  uint64_t graph_hash = 0;
  uint64_t feature_hash = 0;
  double conv_r = 0.5;
  bool self_loops = false;
  bool initial_residual = true;
  int32_t steps = 0;
  std::vector<DirectedPattern> patterns;

  friend bool operator==(const PropagationCacheKey& a,
                         const PropagationCacheKey& b) {
    return a.graph_hash == b.graph_hash && a.feature_hash == b.feature_hash &&
           a.conv_r == b.conv_r && a.self_loops == b.self_loops &&
           a.initial_residual == b.initial_residual && a.steps == b.steps &&
           a.patterns == b.patterns;
  }
};

/// The key the Eq. 9 precompute over `dataset` with `config` would use.
PropagationCacheKey MakePropagationCacheKey(
    const Dataset& dataset, const ModelConfig& config,
    const std::vector<DirectedPattern>& patterns);

}  // namespace adpa
