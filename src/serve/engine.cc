#include "src/serve/engine.h"

#include <utility>

#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/tensor/workspace.h"

namespace adpa::serve {
namespace {

/// The calling thread's forward workspace: the micro-batcher flushes on the
/// serving loop's thread, so steady-state forwards reuse it and never allocate.
Workspace& ThreadWorkspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

Result<InferenceSession> InferenceSession::Create(
    const Checkpoint& checkpoint, const Dataset& dataset) {
  const ModelConfig& config = checkpoint.model_config;
  if (checkpoint.patterns.empty()) {
    return Status::InvalidArgument(
        "checkpoint records no DP patterns; serving supports ADPA "
        "checkpoints only");
  }
  ADPA_RETURN_IF_ERROR(CheckCheckpointDataset(checkpoint, dataset));
  const int64_t n = dataset.num_nodes();
  const int64_t f = dataset.feature_dim();
  const int64_t num_classes = dataset.num_classes;
  if (n <= 0 || f <= 0 || num_classes <= 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (config.hidden <= 0) {
    return Status::InvalidArgument("checkpoint has non-positive hidden dim");
  }
  // Shapes first: a config that disagrees with its own tensors (say a
  // hidden dim raised past the stored weights) must not size any buffer.
  const int64_t k = static_cast<int64_t>(checkpoint.patterns.size());
  ADPA_RETURN_IF_ERROR(CheckParameterShapes(
      checkpoint, AdpaParameterShapes(config, k, n, f, num_classes)));

  InferenceSession session;
  session.num_nodes_ = n;
  session.num_classes_ = num_classes;

  // Eq. 9 runs here, and its blocks move into the model's leaves. The seed
  // only shapes the initial weights the restore overwrites.
  Rng init_rng(0);
  auto model = std::make_unique<AdpaModel>(
      dataset, config, checkpoint.patterns,
      ToDpLeaves(PropagateDp(dataset, config, checkpoint.patterns)),
      &init_rng);
  ADPA_RETURN_IF_ERROR(LoadCheckpointIntoModel(checkpoint, model.get()));
  session.model_ = std::move(model);
  return session;
}

Matrix InferenceSession::ForwardAll() const {
  Workspace& ws = ThreadWorkspace();
  ws.Reset();
  return model_->Evaluate(/*nodes=*/nullptr, &ws);
}

Result<Matrix> InferenceSession::ForwardRows(
    const std::vector<int64_t>& nodes) const {
  if (nodes.empty()) {
    return Status::InvalidArgument("empty node list");
  }
  for (int64_t node : nodes) {
    if (node < 0 || node >= num_nodes_) {
      // analyze:allow(alloc): error path only
      return Status::OutOfRange("node index " + std::to_string(node) +
                                " out of range [0, " +
                                std::to_string(num_nodes_) +  // analyze:allow(alloc): error path only
                                ")");
    }
  }
  // Batched serving is latency-bound and its ops are sub-millisecond:
  // fanning them out pays a cold worker wake-up per op, which measurably
  // costs more than the parallel speedup buys (BENCH_serve.json's 8-thread
  // QPS sat *below* 1-thread before this pin). Run the whole request
  // inline; results are identical by the thread-count-invariance contract.
  SerialSection serial;
  Workspace& ws = ThreadWorkspace();
  ws.Reset();
  return model_->Evaluate(&nodes, &ws);
}

Result<std::vector<int64_t>> InferenceSession::Classify(
    const std::vector<int64_t>& nodes) const {
  Result<Matrix> logits = ForwardRows(nodes);
  ADPA_RETURN_IF_ERROR(logits.status());
  // The one unavoidable allocation: the result the client owns.
  std::vector<int64_t> classes(nodes.size());
  for (int64_t r = 0; r < logits->rows(); ++r) {
    const float* row = logits->Row(r);
    int64_t best = 0;
    for (int64_t c = 1; c < logits->cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    classes[static_cast<size_t>(r)] = best;
  }
  return classes;
}

}  // namespace adpa::serve
