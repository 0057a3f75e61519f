#include "src/serve/engine.h"

#include <iostream>
#include <utility>

#include "src/core/failpoint.h"
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

bool BlocksShapedLike(const std::vector<std::vector<Matrix>>& blocks,
                      int steps, int64_t per_step, int64_t rows,
                      int64_t cols) {
  if (static_cast<int64_t>(blocks.size()) != steps) return false;
  for (const auto& step_blocks : blocks) {
    if (static_cast<int64_t>(step_blocks.size()) != per_step) return false;
    for (const Matrix& block : step_blocks) {
      if (block.rows() != rows || block.cols() != cols) return false;
    }
  }
  return true;
}

}  // namespace

Result<InferenceSession> InferenceSession::Create(
    const Checkpoint& checkpoint, const Dataset& dataset,
    const EngineOptions& options) {
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

  // --- Eq. 9 precompute: sidecar cache hit, else replay (and refresh). ---
  // Graceful degradation is the contract here: a corrupt, truncated, or
  // unreadable cache must never fail startup — the session recomputes and
  // rewrites the sidecar, paying one slow start instead of an outage.
  PropagationCache cache;
  if (!options.propagation_cache_path.empty()) {
    cache.key = MakePropagationCacheKey(dataset, config, checkpoint.patterns);
    Status injected = ADPA_FAILPOINT_STATUS("serve.cache.load");
    Result<PropagationCache> cached =
        injected.ok()
            ? TryLoadPropagationCache(options.propagation_cache_path)
            : Result<PropagationCache>(std::move(injected));
    const int64_t blocks_per_step = k + (config.initial_residual ? 1 : 0);
    if (cached.ok() && cached->key == cache.key &&
        BlocksShapedLike(cached->blocks, cache.key.steps, blocks_per_step, n,
                         f)) {
      cache.blocks = std::move(cached->blocks);
      session.used_propagation_cache_ = true;
    } else if (!cached.ok() &&
               cached.status().code() != StatusCode::kNotFound) {
      session.cache_degraded_ = true;
      std::cerr << "warning: propagation cache "
                << options.propagation_cache_path << " is unusable ("
                << cached.status().ToString()
                << "); recomputing and rewriting it\n";
    }
  }
  if (!session.used_propagation_cache_) {
    cache.blocks = PropagateDp(dataset, config, checkpoint.patterns);
    if (!options.propagation_cache_path.empty()) {
      // Best effort: a failed cache write only costs the next startup. The
      // atomic rewrite also heals the corrupt-sidecar case above.
      Status cache_write = ADPA_FAILPOINT_STATUS("serve.cache.write");
      if (cache_write.ok()) {
        cache_write =
            SavePropagationCache(cache, options.propagation_cache_path);
      }
      if (!cache_write.ok()) {
        std::cerr << "warning: propagation cache write failed ("
                  << cache_write.ToString() << "); serving uncached\n";
      }
    }
  }

  // --- Restore the model on the blocks (moved into its leaves). ---
  // The seed only shapes the initial weights the restore overwrites.
  Rng init_rng(0);
  auto model = std::make_unique<AdpaModel>(
      dataset, config, checkpoint.patterns,
      ToDpLeaves(std::move(cache.blocks)), &init_rng);
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
