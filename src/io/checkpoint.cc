#include "src/io/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/failpoint.h"
#include "src/core/hash.h"
#include "src/io/atomic_file.h"
#include "src/io/binary.h"
#include "src/models/adpa.h"

namespace adpa {
namespace {

constexpr char kCheckpointMagic[8] = {'A', 'D', 'P', 'A', 'C', 'K', 'P', 'T'};
/// v2 appended the optional TrainState record; readers accept 1..current.
constexpr uint32_t kFormatVersion = 2;
constexpr uint32_t kMinReadableVersion = 1;
/// The payload is read this many bytes at a time, so its buffer grows with
/// the bytes that arrive, not with the size the header claims.
constexpr uint64_t kPayloadChunkBytes = uint64_t{1} << 20;

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed checkpoint: " + what);
}

/// Wraps `payload` in the magic/version/CRC32/size container.
Status WriteContainer(const std::string& payload, std::ostream& out) {
  BinaryWriter writer(&out);
  writer.WriteBytes(kCheckpointMagic, 8);
  writer.WriteU32(kFormatVersion);
  writer.WriteU32(Crc32(payload.data(), payload.size()));
  writer.WriteU64(payload.size());
  writer.WriteBytes(payload.data(), payload.size());
  ADPA_RETURN_IF_ERROR(writer.status());
  out.flush();
  if (!out.good()) return Status::Internal("stream write failed");
  return Status::OK();
}

/// Validates the container header and returns the CRC-verified payload plus
/// the (already range-checked) format version in `*version_out`.
Status ReadContainerPayload(std::istream& in, const CheckpointLimits& limits,
                            std::string* payload, uint32_t* version_out) {
  BinaryReader reader(&in);
  char file_magic[8] = {};
  Status magic_read = reader.ReadBytes(file_magic, 8);
  if (!magic_read.ok()) return Malformed("missing magic header");
  if (std::string(file_magic, 8) != std::string(kCheckpointMagic, 8)) {
    return Malformed("bad magic (not a ADPACKPT file)");
  }
  uint32_t version = 0, crc = 0;
  uint64_t size = 0;
  ADPA_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version < kMinReadableVersion || version > kFormatVersion) {
    return Malformed("unsupported format version " + std::to_string(version));
  }
  *version_out = version;
  ADPA_RETURN_IF_ERROR(reader.ReadU32(&crc));
  ADPA_RETURN_IF_ERROR(reader.ReadU64(&size));
  if (size > limits.max_payload_bytes) {
    return Malformed("payload size exceeds limit");
  }
  payload->clear();
  while (payload->size() < size) {
    const size_t offset = payload->size();
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(kPayloadChunkBytes, size - offset));
    payload->resize(offset + chunk);
    if (!reader.ReadBytes(payload->data() + offset, chunk).ok()) {
      return Malformed("truncated payload");
    }
  }
  if (Crc32(payload->data(), payload->size()) != crc) {
    return Malformed(
        "payload checksum mismatch (file corrupted or partially written)");
  }
  return Status::OK();
}

void WriteModelConfig(BinaryWriter* w, const ModelConfig& c) {
  w->WriteI64(c.hidden);
  w->WriteI32(c.num_layers);
  w->WriteF32(c.dropout);
  w->WriteI32(c.propagation_steps);
  w->WriteI32(c.pattern_order);
  w->WriteF64(c.conv_r);
  w->WriteF32(c.alpha);
  w->WriteF32(c.magnet_q);
  w->WriteU8(static_cast<uint8_t>(c.dp_attention));
  w->WriteU8(c.use_dp_attention ? 1 : 0);
  w->WriteU8(c.use_hop_attention ? 1 : 0);
  w->WriteU8(c.initial_residual ? 1 : 0);
  w->WriteI32(c.select_patterns);
  w->WriteU8(c.propagation_self_loops ? 1 : 0);
}

Status ReadModelConfig(BinaryReader* r, const CheckpointLimits& limits,
                       ModelConfig* c) {
  uint8_t dp_attention = 0, use_dp = 0, use_hop = 0, residual = 0,
          self_loops = 0;
  ADPA_RETURN_IF_ERROR(r->ReadI64(&c->hidden));
  ADPA_RETURN_IF_ERROR(r->ReadI32(&c->num_layers));
  ADPA_RETURN_IF_ERROR(r->ReadF32(&c->dropout));
  ADPA_RETURN_IF_ERROR(r->ReadI32(&c->propagation_steps));
  ADPA_RETURN_IF_ERROR(r->ReadI32(&c->pattern_order));
  ADPA_RETURN_IF_ERROR(r->ReadF64(&c->conv_r));
  ADPA_RETURN_IF_ERROR(r->ReadF32(&c->alpha));
  ADPA_RETURN_IF_ERROR(r->ReadF32(&c->magnet_q));
  ADPA_RETURN_IF_ERROR(r->ReadU8(&dp_attention));
  ADPA_RETURN_IF_ERROR(r->ReadU8(&use_dp));
  ADPA_RETURN_IF_ERROR(r->ReadU8(&use_hop));
  ADPA_RETURN_IF_ERROR(r->ReadU8(&residual));
  ADPA_RETURN_IF_ERROR(r->ReadI32(&c->select_patterns));
  ADPA_RETURN_IF_ERROR(r->ReadU8(&self_loops));
  // Magnitude bounds, enforced at the read boundary: these fields size
  // allocations everywhere downstream (classifier stacks, per-step blocks,
  // hidden-dim weight matrices), and a consumer-side std::max(1, ...) only
  // clamps from below.
  if (c->hidden < 0 || c->hidden > limits.max_hidden_dim) {
    return Malformed("hidden dimension exceeds limit");
  }
  if (c->num_layers < 0 || c->num_layers > limits.max_model_layers) {
    return Malformed("layer count exceeds limit");
  }
  // Dropout takes p in [0, 1) and CHECK-fails on anything else, NaN
  // included, so the range is enforced here as well.
  if (!(c->dropout >= 0.0f && c->dropout < 1.0f)) {
    return Malformed("dropout outside [0, 1)");
  }
  if (c->propagation_steps < 0 ||
      c->propagation_steps > limits.max_propagation_steps) {
    return Malformed("propagation step count exceeds limit");
  }
  if (c->pattern_order < 0 || c->pattern_order > limits.max_pattern_order) {
    return Malformed("pattern order exceeds limit");
  }
  if (c->select_patterns < 0 ||
      c->select_patterns > limits.max_select_patterns) {
    return Malformed("selected pattern count exceeds limit");
  }
  if (dp_attention > static_cast<uint8_t>(DpAttention::kJk)) {
    return Malformed("dp_attention enum out of range");
  }
  c->dp_attention = static_cast<DpAttention>(dp_attention);
  c->use_dp_attention = use_dp != 0;
  c->use_hop_attention = use_hop != 0;
  c->initial_residual = residual != 0;
  c->propagation_self_loops = self_loops != 0;
  return Status::OK();
}

void WriteTrainConfig(BinaryWriter* w, const TrainConfig& c) {
  w->WriteI32(c.max_epochs);
  w->WriteI32(c.patience);
  w->WriteF32(c.learning_rate);
  w->WriteF32(c.weight_decay);
}

Status ReadTrainConfig(BinaryReader* r, TrainConfig* c) {
  ADPA_RETURN_IF_ERROR(r->ReadI32(&c->max_epochs));
  ADPA_RETURN_IF_ERROR(r->ReadI32(&c->patience));
  ADPA_RETURN_IF_ERROR(r->ReadF32(&c->learning_rate));
  ADPA_RETURN_IF_ERROR(r->ReadF32(&c->weight_decay));
  return Status::OK();
}

void WritePatterns(BinaryWriter* w,
                   const std::vector<DirectedPattern>& patterns) {
  w->WriteU32(static_cast<uint32_t>(patterns.size()));
  for (const DirectedPattern& pattern : patterns) {
    w->WriteU32(static_cast<uint32_t>(pattern.word.size()));
    for (Hop hop : pattern.word) {
      w->WriteU8(hop == Hop::kIn ? 1 : 0);
    }
  }
}

Status ReadPatterns(BinaryReader* r, const CheckpointLimits& limits,
                    std::vector<DirectedPattern>* patterns) {
  uint32_t count = 0;
  ADPA_RETURN_IF_ERROR(r->ReadU32(&count));
  if (count > limits.max_patterns) {
    return Malformed("pattern count exceeds limit");
  }
  patterns->clear();
  patterns->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t length = 0;
    ADPA_RETURN_IF_ERROR(r->ReadU32(&length));
    if (length == 0 || length > limits.max_pattern_length) {
      return Malformed("pattern length out of range");
    }
    DirectedPattern pattern;
    pattern.word.reserve(length);
    for (uint32_t h = 0; h < length; ++h) {
      uint8_t hop = 0;
      ADPA_RETURN_IF_ERROR(r->ReadU8(&hop));
      if (hop > 1) return Malformed("pattern hop byte out of range");
      pattern.word.push_back(hop == 1 ? Hop::kIn : Hop::kOut);
    }
    patterns->push_back(std::move(pattern));
  }
  return Status::OK();
}

/// v2 training-resume record (after the tensor list; see DESIGN.md §10).
void WriteTrainState(BinaryWriter* w, const TrainState& s) {
  w->WriteI32(s.next_epoch);
  w->WriteI32(s.epochs_since_best);
  w->WriteI32(s.best_epoch);
  w->WriteF64(s.best_val_accuracy);
  w->WriteF64(s.test_accuracy);
  for (uint64_t word : s.rng.words) w->WriteU64(word);
  w->WriteU8(s.rng.has_cached_normal ? 1 : 0);
  w->WriteF64(s.rng.cached_normal);
  w->WriteI64(s.optimizer_step_count);
  w->WriteU32(static_cast<uint32_t>(s.adam_first_moment.size()));
  for (size_t i = 0; i < s.adam_first_moment.size(); ++i) {
    w->WriteMatrix(s.adam_first_moment[i]);
    w->WriteMatrix(s.adam_second_moment[i]);
  }
  w->WriteU32(static_cast<uint32_t>(s.val_curve.size()));
  for (double v : s.val_curve) w->WriteF64(v);
  w->WriteU32(static_cast<uint32_t>(s.train_loss_curve.size()));
  for (double v : s.train_loss_curve) w->WriteF64(v);
}

Status ReadTrainState(BinaryReader* r, const CheckpointLimits& limits,
                      TrainState* s) {
  uint8_t has_cached_normal = 0;
  ADPA_RETURN_IF_ERROR(r->ReadI32(&s->next_epoch));
  ADPA_RETURN_IF_ERROR(r->ReadI32(&s->epochs_since_best));
  ADPA_RETURN_IF_ERROR(r->ReadI32(&s->best_epoch));
  ADPA_RETURN_IF_ERROR(r->ReadF64(&s->best_val_accuracy));
  ADPA_RETURN_IF_ERROR(r->ReadF64(&s->test_accuracy));
  for (uint64_t& word : s->rng.words) ADPA_RETURN_IF_ERROR(r->ReadU64(&word));
  ADPA_RETURN_IF_ERROR(r->ReadU8(&has_cached_normal));
  s->rng.has_cached_normal = has_cached_normal != 0;
  ADPA_RETURN_IF_ERROR(r->ReadF64(&s->rng.cached_normal));
  ADPA_RETURN_IF_ERROR(r->ReadI64(&s->optimizer_step_count));
  if (s->next_epoch < 0 || s->epochs_since_best < 0 || s->best_epoch < 0 ||
      s->optimizer_step_count < 0) {
    return Malformed("negative train-state counter");
  }
  uint32_t moments = 0;
  ADPA_RETURN_IF_ERROR(r->ReadU32(&moments));
  if (moments > limits.max_tensors) {
    return Malformed("moment count exceeds limit");
  }
  s->adam_first_moment.reserve(moments);
  s->adam_second_moment.reserve(moments);
  for (uint32_t i = 0; i < moments; ++i) {
    Matrix first, second;
    ADPA_RETURN_IF_ERROR(r->ReadMatrix(&first, limits.max_tensor_entries));
    ADPA_RETURN_IF_ERROR(r->ReadMatrix(&second, limits.max_tensor_entries));
    s->adam_first_moment.push_back(std::move(first));
    s->adam_second_moment.push_back(std::move(second));
  }
  for (std::vector<double>* curve : {&s->val_curve, &s->train_loss_curve}) {
    uint32_t points = 0;
    ADPA_RETURN_IF_ERROR(r->ReadU32(&points));
    if (points > limits.max_curve_points) {
      return Malformed("curve length exceeds limit");
    }
    // Read one point at a time: a hostile count costs at most one failed
    // 8-byte read past the payload, never a count-sized allocation.
    for (uint32_t i = 0; i < points; ++i) {
      double value = 0.0;
      ADPA_RETURN_IF_ERROR(r->ReadF64(&value));
      curve->push_back(value);
    }
  }
  return Status::OK();
}

}  // namespace

Status SaveCheckpointToStream(const Checkpoint& checkpoint,
                              std::ostream& out) {
  ADPA_FAILPOINT("checkpoint.save");
  if (checkpoint.train_state.has_value() &&
      checkpoint.train_state->adam_first_moment.size() !=
          checkpoint.train_state->adam_second_moment.size()) {
    return Status::InvalidArgument(
        "train state has mismatched Adam moment vector lengths");
  }
  std::ostringstream body;
  BinaryWriter writer(&body);
  writer.WriteString(checkpoint.model_name);
  writer.WriteString(checkpoint.dataset_name);
  writer.WriteU64(checkpoint.dataset_hash);
  WriteModelConfig(&writer, checkpoint.model_config);
  WriteTrainConfig(&writer, checkpoint.train_config);
  WritePatterns(&writer, checkpoint.patterns);
  writer.WriteU32(static_cast<uint32_t>(checkpoint.tensors.size()));
  for (const NamedTensor& tensor : checkpoint.tensors) {
    writer.WriteString(tensor.name);
    writer.WriteMatrix(tensor.value);
  }
  writer.WriteU8(checkpoint.train_state.has_value() ? 1 : 0);
  if (checkpoint.train_state.has_value()) {
    WriteTrainState(&writer, *checkpoint.train_state);
  }
  ADPA_RETURN_IF_ERROR(writer.status());
  return WriteContainer(body.str(), out);
}

Status SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path) {
  AtomicFileWriter writer(path);
  ADPA_RETURN_IF_ERROR(SaveCheckpointToStream(checkpoint, writer.stream()));
  return writer.Commit();
}

Result<Checkpoint> TryLoadCheckpointFromStream(std::istream& in,
                                               const CheckpointLimits& limits) {
  ADPA_FAILPOINT("checkpoint.load");
  std::string payload;
  uint32_t version = 0;
  ADPA_RETURN_IF_ERROR(ReadContainerPayload(in, limits, &payload, &version));
  const uint64_t payload_size = payload.size();
  std::istringstream body(std::move(payload));
  BinaryReader reader(&body, payload_size);
  Checkpoint checkpoint;
  ADPA_RETURN_IF_ERROR(
      reader.ReadString(&checkpoint.model_name, limits.max_name_bytes));
  ADPA_RETURN_IF_ERROR(
      reader.ReadString(&checkpoint.dataset_name, limits.max_name_bytes));
  ADPA_RETURN_IF_ERROR(reader.ReadU64(&checkpoint.dataset_hash));
  ADPA_RETURN_IF_ERROR(
      ReadModelConfig(&reader, limits, &checkpoint.model_config));
  ADPA_RETURN_IF_ERROR(ReadTrainConfig(&reader, &checkpoint.train_config));
  ADPA_RETURN_IF_ERROR(ReadPatterns(&reader, limits, &checkpoint.patterns));
  uint32_t tensor_count = 0;
  ADPA_RETURN_IF_ERROR(reader.ReadU32(&tensor_count));
  if (tensor_count > limits.max_tensors) {
    return Malformed("tensor count exceeds limit");
  }
  checkpoint.tensors.reserve(tensor_count);
  for (uint32_t i = 0; i < tensor_count; ++i) {
    NamedTensor tensor;
    ADPA_RETURN_IF_ERROR(
        reader.ReadString(&tensor.name, limits.max_name_bytes));
    ADPA_RETURN_IF_ERROR(
        reader.ReadMatrix(&tensor.value, limits.max_tensor_entries));
    checkpoint.tensors.push_back(std::move(tensor));
  }
  if (version >= 2) {
    uint8_t has_train_state = 0;
    ADPA_RETURN_IF_ERROR(reader.ReadU8(&has_train_state));
    if (has_train_state > 1) {
      return Malformed("train-state flag out of range");
    }
    if (has_train_state == 1) {
      TrainState state;
      ADPA_RETURN_IF_ERROR(ReadTrainState(&reader, limits, &state));
      checkpoint.train_state = std::move(state);
    }
  }
  return checkpoint;
}

Result<Checkpoint> TryLoadCheckpoint(const std::string& path,
                                     const CheckpointLimits& limits) {
  // Opening a FIFO with no writer blocks without limit; a missing path
  // falls through to the open and its NotFound.
  std::error_code error;
  const std::filesystem::file_status type =
      std::filesystem::status(path, error);
  if (std::filesystem::exists(type) &&
      !std::filesystem::is_regular_file(type)) {
    return Status::InvalidArgument("not a regular file: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open: " + path);
  Result<Checkpoint> result = TryLoadCheckpointFromStream(in, limits);
  if (!result.ok() &&
      result.status().code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument(result.status().message() + " (file " +
                                   path + ")");
  }
  return result;
}

uint64_t MatrixContentHash(const Matrix& matrix) {
  Fnv1aHasher hasher;
  hasher.UpdateValue<int64_t>(matrix.rows());
  hasher.UpdateValue<int64_t>(matrix.cols());
  hasher.Update(matrix.data(),
                static_cast<size_t>(matrix.size()) * sizeof(float));
  return hasher.Digest();
}

uint64_t GraphContentHash(const Digraph& graph) {
  Fnv1aHasher hasher;
  hasher.UpdateValue<int64_t>(graph.num_nodes());
  hasher.UpdateValue<int64_t>(graph.num_edges());
  for (const Edge& edge : graph.edges()) {
    hasher.UpdateValue<int64_t>(edge.src);
    hasher.UpdateValue<int64_t>(edge.dst);
  }
  return hasher.Digest();
}

uint64_t DatasetContentHash(const Dataset& dataset) {
  Fnv1aHasher hasher;
  hasher.UpdateValue<uint64_t>(GraphContentHash(dataset.graph));
  hasher.UpdateValue<uint64_t>(MatrixContentHash(dataset.features));
  hasher.UpdateValue<int64_t>(dataset.num_classes);
  hasher.UpdateValue<uint64_t>(dataset.labels.size());
  for (int64_t label : dataset.labels) hasher.UpdateValue<int64_t>(label);
  return hasher.Digest();
}

Checkpoint MakeCheckpoint(const Model& model, const std::string& model_name,
                          const Dataset& dataset,
                          const ModelConfig& model_config,
                          const TrainConfig& train_config) {
  Checkpoint checkpoint;
  checkpoint.model_name = model_name;
  checkpoint.dataset_name = dataset.name;
  checkpoint.dataset_hash = DatasetContentHash(dataset);
  checkpoint.model_config = model_config;
  checkpoint.train_config = train_config;
  if (const auto* adpa = dynamic_cast<const AdpaModel*>(&model)) {
    checkpoint.patterns = adpa->patterns();
  }
  const std::vector<ag::Variable> params = model.Parameters();
  checkpoint.tensors.reserve(params.size());
  char name[32];
  for (size_t i = 0; i < params.size(); ++i) {
    std::snprintf(name, sizeof(name), "param_%04zu", i);
    checkpoint.tensors.push_back(NamedTensor{name, params[i].value()});
  }
  return checkpoint;
}

Status CheckCheckpointDataset(const Checkpoint& checkpoint,
                              const Dataset& dataset) {
  if (checkpoint.dataset_hash != DatasetContentHash(dataset)) {
    return Status::FailedPrecondition(
        "dataset content hash does not match the checkpoint (graph, "
        "features, labels, or edge direction changed since training)");
  }
  return Status::OK();
}

Status CheckParameterShapes(const Checkpoint& checkpoint,
                            const std::vector<ParameterShape>& shapes) {
  if (shapes.size() != checkpoint.tensors.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(checkpoint.tensors.size()) +
        " tensors but the model has " + std::to_string(shapes.size()) +
        " parameters (config or dataset mismatch)");
  }
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Matrix& stored = checkpoint.tensors[i].value;
    if (stored.rows() != shapes[i].rows || stored.cols() != shapes[i].cols) {
      return Status::InvalidArgument(
          "tensor " + checkpoint.tensors[i].name + " shape " +
          std::to_string(stored.rows()) + "x" + std::to_string(stored.cols()) +
          " does not match the model parameter shape " +
          std::to_string(shapes[i].rows) + "x" +
          std::to_string(shapes[i].cols));
    }
  }
  return Status::OK();
}

Status LoadCheckpointIntoModel(const Checkpoint& checkpoint, Model* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("LoadCheckpointIntoModel: null model");
  }
  std::vector<ag::Variable> params = model->Parameters();
  std::vector<ParameterShape> shapes;
  for (const ag::Variable& param : params) {
    shapes.push_back({param.rows(), param.cols()});
  }
  ADPA_RETURN_IF_ERROR(CheckParameterShapes(checkpoint, shapes));
  // A diverged run saves NaN weights under a valid CRC; served, they would
  // answer class 0 for every node.
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& stored = checkpoint.tensors[i].value;
    if (!std::all_of(stored.data(), stored.data() + stored.size(),
                     [](float v) { return std::isfinite(v); })) {
      return Status::InvalidArgument(
          "tensor " + std::to_string(i) + " (" + checkpoint.tensors[i].name +
          ") holds a NaN or Inf; refusing non-finite weights");
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    *params[i].mutable_value() = checkpoint.tensors[i].value;
  }
  return Status::OK();
}

PropagationCacheKey MakePropagationCacheKey(
    const Dataset& dataset, const ModelConfig& config,
    const std::vector<DirectedPattern>& patterns) {
  PropagationCacheKey key;
  key.graph_hash = GraphContentHash(dataset.graph);
  key.feature_hash = MatrixContentHash(dataset.features);
  key.conv_r = config.conv_r;
  key.self_loops = config.propagation_self_loops;
  key.initial_residual = config.initial_residual;
  key.steps = std::max(1, config.propagation_steps);
  key.patterns = patterns;
  return key;
}

}  // namespace adpa
