#include "src/serve/engine.h"

#include <cmath>
#include <iostream>
#include <utility>

#include "src/core/failpoint.h"
#include "src/core/logging.h"
#include "src/core/parallel.h"
#include "src/core/random.h"

namespace adpa::serve {
namespace {

/// Elementwise maps matching the ag::Relu / ag::Sigmoid forwards bit for
/// bit (same expressions, same ApplyFn loop).
void ReluInPlace(Matrix* m) {
  m->ApplyFn([](float v) { return v > 0.0f ? v : 0.0f; });
}
void SigmoidInPlace(Matrix* m) {
  m->ApplyFn([](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Matrix* LinearForward(const Matrix& x, const nn::Linear& layer,
                      Workspace* ws) {
  // Same kernels as nn::Linear::Forward: ag::MatMul then ag::AddBias,
  // writing into a workspace slot instead of a fresh Matrix.
  const Matrix& weight = layer.weight().value();
  Matrix* out = ws->Acquire(x.rows(), weight.cols());
  MatMulInto(x, weight, out);
  if (layer.bias().defined()) {
    AddRowBroadcastInPlace(out, layer.bias().value());
  }
  return out;
}

Matrix* MlpForward(const nn::Mlp& mlp, const Matrix& input, Workspace* ws) {
  // nn::Mlp::Forward in eval mode with AdpaModel's default ReLU: activation
  // between layers, dropout is the identity, none after the last layer.
  const std::vector<nn::Linear>& layers = mlp.layers();
  Matrix* h = LinearForward(input, layers[0], ws);
  for (size_t i = 1; i < layers.size(); ++i) {
    ReluInPlace(h);
    h = LinearForward(*h, layers[i], ws);
  }
  return h;
}

/// Per-thread forward scratch. The micro-batcher flushes batches on the
/// serving loop's thread, so each serving thread owns one workspace plus the
/// reusable view vectors, and steady-state forwards never allocate.
struct ForwardScratch {
  Workspace ws;
  std::vector<std::vector<const Matrix*>> block_views;
  Matrix dp_rows;
  /// Reused view lists for FuseStep / ForwardBlocks so steady-state
  /// forwards build their per-step pointer lists without reallocating.
  std::vector<const Matrix*> fuse_views;
  std::vector<const Matrix*> fused_steps;
};

ForwardScratch& Scratch() {
  thread_local ForwardScratch scratch;
  return scratch;
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

Matrix* InferenceSession::FuseStep(const std::vector<const Matrix*>& blocks,
                                   const Matrix& dp_rows,
                                   Workspace* ws) const {
  const int64_t num_blocks = static_cast<int64_t>(blocks.size());
  const int64_t rows = blocks[0]->rows();
  const int64_t cols = blocks[0]->cols();
  Matrix* concat = ws->Acquire(rows, num_blocks * cols);
  std::vector<const Matrix*>& views = Scratch().fuse_views;
  const AdpaModel& model = *model_;
  if (!model.config_.use_dp_attention) {
    Matrix* mean = ws->Acquire(rows, cols);
    *mean = *blocks[0];
    for (int64_t g = 1; g < num_blocks; ++g) mean->AddInPlace(*blocks[g]);
    mean->ScaleInPlace(1.0f / static_cast<float>(num_blocks));
    views.assign(num_blocks, mean);  // analyze:allow(alloc): thread_local capacity reuse
    ConcatColsInto(views, concat);
    Matrix* fused = MlpForward(model.dp_fuse_, *concat, ws);
    ReluInPlace(fused);
    return fused;
  }
  switch (model.config_.dp_attention) {
    case DpAttention::kOriginal: {
      Matrix* weights = ws->Acquire(dp_rows.rows(), dp_rows.cols());
      SoftmaxRowsInto(dp_rows, weights);
      Matrix* column = ws->Acquire(rows, 1);
      views.clear();
      for (int64_t g = 0; g < num_blocks; ++g) {
        SliceColsInto(*weights, g, g + 1, column);
        Matrix* scaled_g = ws->Acquire(rows, cols);
        ScaleRowsInto(*blocks[g], *column, scaled_g);
        views.push_back(scaled_g);  // analyze:allow(alloc): thread_local capacity reuse
      }
      ConcatColsInto(views, concat);
      Matrix* fused = MlpForward(model.dp_fuse_, *concat, ws);
      ReluInPlace(fused);
      return fused;
    }
    case DpAttention::kGate: {
      views.clear();
      for (int64_t g = 0; g < num_blocks; ++g) {
        Matrix* gate = LinearForward(*blocks[g], model.gate_layers_[g], ws);
        SigmoidInPlace(gate);
        Matrix* scaled_g = ws->Acquire(rows, cols);
        ScaleRowsInto(*blocks[g], *gate, scaled_g);
        views.push_back(scaled_g);  // analyze:allow(alloc): thread_local capacity reuse
      }
      ConcatColsInto(views, concat);
      Matrix* fused = MlpForward(model.dp_fuse_, *concat, ws);
      ReluInPlace(fused);
      return fused;
    }
    case DpAttention::kRecursive: {
      Matrix* acc = ws->Acquire(rows, cols);
      *acc = *blocks[0];
      Matrix* pair = ws->Acquire(rows, 2 * cols);
      Matrix* scaled = ws->Acquire(rows, cols);
      for (int64_t g = 1; g < num_blocks; ++g) {
        ConcatColsInto({blocks[g], acc}, pair);
        Matrix* score =
            LinearForward(*pair, model.recursive_layers_[g], ws);
        SigmoidInPlace(score);
        ScaleRowsInto(*blocks[g], *score, scaled);
        acc->AddInPlace(*scaled);
      }
      Matrix* fused = LinearForward(*acc, model.jk_fuse_, ws);
      ReluInPlace(fused);
      return fused;
    }
    case DpAttention::kJk: {
      ConcatColsInto(blocks, concat);
      Matrix* fused = LinearForward(*concat, model.jk_fuse_, ws);
      ReluInPlace(fused);
      return fused;
    }
  }
  ADPA_CHECK(false) << "unreachable";
  return concat;
}

Matrix InferenceSession::ForwardBlocks(
    const std::vector<std::vector<const Matrix*>>& blocks,
    const Matrix& dp_rows, Workspace* ws) const {
  // Per-step fused outputs live in the thread_local scratch (not a fresh
  // vector) so steady-state forwards reuse its capacity. FuseStep writes
  // only Scratch().fuse_views, never fused_steps, so the lists don't alias.
  std::vector<const Matrix*>& fused = Scratch().fused_steps;
  fused.clear();
  for (const auto& step_blocks : blocks) {
    fused.push_back(FuseStep(step_blocks, dp_rows, ws));  // analyze:allow(alloc): thread_local capacity reuse
  }

  const AdpaModel& model = *model_;
  const int steps = model.steps_;
  Matrix* combined = nullptr;
  if (model.config_.use_hop_attention && steps > 1) {
    Matrix* hop_concat =
        ws->Acquire(fused[0]->rows(), steps * fused[0]->cols());
    ConcatColsInto(fused, hop_concat);
    Matrix* scores = LinearForward(*hop_concat, model.hop_scorer_, ws);
    Matrix* weights = ws->Acquire(scores->rows(), scores->cols());
    SoftmaxRowsInto(*scores, weights);
    Matrix* column = ws->Acquire(fused[0]->rows(), 1);
    combined = ws->Acquire(fused[0]->rows(), fused[0]->cols());
    Matrix* weighted = ws->Acquire(fused[0]->rows(), fused[0]->cols());
    for (int l = 0; l < steps; ++l) {
      SliceColsInto(*weights, l, l + 1, column);
      if (l == 0) {
        ScaleRowsInto(*fused[l], *column, combined);
      } else {
        ScaleRowsInto(*fused[l], *column, weighted);
        combined->AddInPlace(*weighted);
      }
    }
  } else {
    combined = ws->Acquire(fused[0]->rows(), fused[0]->cols());
    *combined = *fused[0];
    for (int l = 1; l < steps; ++l) combined->AddInPlace(*fused[l]);
    if (steps > 1) {
      combined->ScaleInPlace(1.0f / static_cast<float>(steps));
    }
  }
  // Training applies Dropout here; in eval mode it is the identity. The
  // returned logits are copied out of the workspace so the caller owns them
  // past the next Reset (batch x classes — the one small copy per forward).
  return *MlpForward(model.classifier_, *combined, ws);
}

Matrix InferenceSession::ForwardAll() const {
  ForwardScratch& scratch = Scratch();
  scratch.ws.Reset();
  const DpLeaves& leaves = model_->propagated_;
  scratch.block_views.resize(leaves.size());
  for (size_t l = 0; l < leaves.size(); ++l) {
    scratch.block_views[l].clear();
    for (const ag::Variable& block : leaves[l]) {
      scratch.block_views[l].push_back(&block.value());
    }
  }
  const ag::Variable& dp_weights = model_->dp_weights_;
  if (!dp_weights.defined()) scratch.dp_rows.Resize(0, 0);
  return ForwardBlocks(scratch.block_views,
                       dp_weights.defined() ? dp_weights.value()
                                            : scratch.dp_rows,
                       &scratch.ws);
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
  ForwardScratch& scratch = Scratch();
  scratch.ws.Reset();
  const DpLeaves& leaves = model_->propagated_;
  scratch.block_views.resize(leaves.size());  // analyze:allow(alloc): thread_local capacity reuse
  for (size_t l = 0; l < leaves.size(); ++l) {
    scratch.block_views[l].clear();
    for (const ag::Variable& block : leaves[l]) {
      Matrix* gathered = scratch.ws.Acquire(
          static_cast<int64_t>(nodes.size()), block.cols());
      GatherRowsInto(block.value(), nodes, gathered);
      scratch.block_views[l].push_back(gathered);  // analyze:allow(alloc): thread_local capacity reuse
    }
  }
  const ag::Variable& dp_weights = model_->dp_weights_;
  if (dp_weights.defined()) {
    GatherRowsInto(dp_weights.value(), nodes, &scratch.dp_rows);
  } else {
    scratch.dp_rows.Resize(0, 0);
  }
  return ForwardBlocks(scratch.block_views, scratch.dp_rows, &scratch.ws);
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
