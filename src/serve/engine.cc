#include "src/serve/engine.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include "src/core/failpoint.h"
#include "src/core/logging.h"
#include "src/core/parallel.h"

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

/// Positional reader over the checkpoint tensor list with shape checking.
struct TensorCursor {
  const std::vector<NamedTensor>& tensors;
  size_t next = 0;

  Status Take(int64_t rows, int64_t cols, const char* role, Matrix* out) {
    if (next >= tensors.size()) {
      return Status::InvalidArgument(
          std::string("checkpoint is missing tensor for ") + role +
          " (parameter list too short)");
    }
    const NamedTensor& tensor = tensors[next];
    if (tensor.value.rows() != rows || tensor.value.cols() != cols) {
      return Status::InvalidArgument(
          std::string("checkpoint tensor ") + tensor.name + " bound to " +
          role + " has shape " + std::to_string(tensor.value.rows()) + "x" +
          std::to_string(tensor.value.cols()) + ", expected " +
          std::to_string(rows) + "x" + std::to_string(cols));
    }
    *out = tensor.value;
    ++next;
    return Status::OK();
  }
};

Matrix* LinearForward(const Matrix& x, const Matrix& weight,
                      const Matrix& bias, Workspace* ws) {
  // Same kernels as nn::Linear::Forward: ag::MatMul then ag::AddBias,
  // writing into a workspace slot instead of a fresh Matrix.
  Matrix* out = ws->Acquire(x.rows(), weight.cols());
  MatMulInto(x, weight, out);
  AddRowBroadcastInPlace(out, bias);
  return out;
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
  if (checkpoint.dataset_hash != 0 &&
      checkpoint.dataset_hash != DatasetContentHash(dataset)) {
    return Status::FailedPrecondition(
        "dataset content hash does not match the checkpoint (graph, "
        "features, or labels changed since training)");
  }
  const int64_t n = dataset.num_nodes();
  const int64_t f = dataset.feature_dim();
  const int64_t num_classes = dataset.num_classes;
  if (n <= 0 || f <= 0 || num_classes <= 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (config.hidden <= 0) {
    return Status::InvalidArgument("checkpoint has non-positive hidden dim");
  }

  InferenceSession session;
  session.config_ = config;
  session.steps_ = std::max(1, config.propagation_steps);
  session.num_nodes_ = n;
  session.num_classes_ = num_classes;
  const int64_t k = static_cast<int64_t>(checkpoint.patterns.size());
  const int64_t B = k + (config.initial_residual ? 1 : 0);
  session.blocks_per_step_ = B;

  // --- Eq. 9 precompute: sidecar cache hit, else replay (and refresh). ---
  // Graceful degradation is the contract here: a corrupt, truncated, or
  // unreadable cache must never fail startup — the session recomputes and
  // rewrites the sidecar, paying one slow start instead of an outage.
  const PropagationCacheKey key =
      MakePropagationCacheKey(dataset, config, checkpoint.patterns);
  if (!options.propagation_cache_path.empty()) {
    Status injected = ADPA_FAILPOINT_STATUS("serve.cache.load");
    Result<PropagationCache> cached =
        injected.ok() ? TryLoadPropagationCache(
                            options.propagation_cache_path, options.limits)
                      : Result<PropagationCache>(std::move(injected));
    if (cached.ok() && cached->key == key &&
        BlocksShapedLike(cached->blocks, session.steps_, B, n, f)) {
      session.blocks_ = std::move(cached->blocks);
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
    session.blocks_ = PropagateDp(dataset, config, checkpoint.patterns);
    if (!options.propagation_cache_path.empty() &&
        options.write_cache_on_miss) {
      PropagationCache cache;
      cache.key = key;
      cache.blocks = session.blocks_;
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

  // --- Bind tensors positionally, mirroring AdpaModel::Parameters(). ---
  TensorCursor cursor{checkpoint.tensors};
  const int64_t h = config.hidden;
  if (config.use_dp_attention) {
    switch (config.dp_attention) {
      case DpAttention::kOriginal:
        ADPA_RETURN_IF_ERROR(
            cursor.Take(n, B, "dp_weights", &session.dp_weights_));
        break;
      case DpAttention::kGate:
        session.gate_layers_.resize(B);
        for (int64_t g = 0; g < B; ++g) {
          ADPA_RETURN_IF_ERROR(cursor.Take(
              f, 1, "gate weight", &session.gate_layers_[g].weight));
          ADPA_RETURN_IF_ERROR(
              cursor.Take(1, 1, "gate bias", &session.gate_layers_[g].bias));
        }
        break;
      case DpAttention::kRecursive:
        session.recursive_layers_.resize(B);
        for (int64_t g = 0; g < B; ++g) {
          ADPA_RETURN_IF_ERROR(
              cursor.Take(2 * f, 1, "recursive weight",
                          &session.recursive_layers_[g].weight));
          ADPA_RETURN_IF_ERROR(cursor.Take(
              1, 1, "recursive bias", &session.recursive_layers_[g].bias));
        }
        break;
      case DpAttention::kJk:
        break;
    }
  }
  const bool uses_jk_fuse =
      config.use_dp_attention && (config.dp_attention == DpAttention::kJk ||
                                  config.dp_attention == DpAttention::kRecursive);
  if (!uses_jk_fuse) {
    session.dp_fuse_.resize(2);
    ADPA_RETURN_IF_ERROR(cursor.Take(B * f, h, "dp_fuse layer 0 weight",
                                     &session.dp_fuse_[0].weight));
    ADPA_RETURN_IF_ERROR(cursor.Take(1, h, "dp_fuse layer 0 bias",
                                     &session.dp_fuse_[0].bias));
    ADPA_RETURN_IF_ERROR(cursor.Take(h, h, "dp_fuse layer 1 weight",
                                     &session.dp_fuse_[1].weight));
    ADPA_RETURN_IF_ERROR(cursor.Take(1, h, "dp_fuse layer 1 bias",
                                     &session.dp_fuse_[1].bias));
  } else {
    const int64_t jk_in =
        config.dp_attention == DpAttention::kJk ? B * f : f;
    ADPA_RETURN_IF_ERROR(
        cursor.Take(jk_in, h, "jk_fuse weight", &session.jk_fuse_.weight));
    ADPA_RETURN_IF_ERROR(
        cursor.Take(1, h, "jk_fuse bias", &session.jk_fuse_.bias));
  }
  if (config.use_hop_attention) {
    ADPA_RETURN_IF_ERROR(cursor.Take(session.steps_ * h, session.steps_,
                                     "hop_scorer weight",
                                     &session.hop_scorer_.weight));
    ADPA_RETURN_IF_ERROR(cursor.Take(1, session.steps_, "hop_scorer bias",
                                     &session.hop_scorer_.bias));
  }
  const int classifier_layers = std::max(1, config.num_layers - 1);
  session.classifier_.resize(classifier_layers);
  for (int i = 0; i < classifier_layers; ++i) {
    const int64_t in = i == 0 ? h : h;
    const int64_t out = i + 1 == classifier_layers ? num_classes : h;
    ADPA_RETURN_IF_ERROR(cursor.Take(in, out, "classifier weight",
                                     &session.classifier_[i].weight));
    ADPA_RETURN_IF_ERROR(
        cursor.Take(1, out, "classifier bias", &session.classifier_[i].bias));
  }
  if (cursor.next != checkpoint.tensors.size()) {
    return Status::InvalidArgument(
        "checkpoint has " +
        std::to_string(checkpoint.tensors.size() - cursor.next) +
        " unconsumed tensors (config mismatch)");
  }
  return session;
}

Matrix* InferenceSession::MlpForward(const std::vector<LinearParams>& layers,
                                     const Matrix& input, Workspace* ws) const {
  // nn::Mlp::Forward in eval mode: activation between layers, dropout is
  // the identity, no activation after the last layer.
  Matrix* h = LinearForward(input, layers[0].weight, layers[0].bias, ws);
  for (size_t i = 1; i < layers.size(); ++i) {
    ReluInPlace(h);
    h = LinearForward(*h, layers[i].weight, layers[i].bias, ws);
  }
  return h;
}

Matrix* InferenceSession::FuseStep(const std::vector<const Matrix*>& blocks,
                                   const Matrix& dp_rows,
                                   Workspace* ws) const {
  const int64_t num_blocks = static_cast<int64_t>(blocks.size());
  const int64_t rows = blocks[0]->rows();
  const int64_t cols = blocks[0]->cols();
  Matrix* concat = ws->Acquire(rows, num_blocks * cols);
  std::vector<const Matrix*>& views = Scratch().fuse_views;
  if (!config_.use_dp_attention) {
    Matrix* mean = ws->Acquire(rows, cols);
    *mean = *blocks[0];
    for (int64_t g = 1; g < num_blocks; ++g) mean->AddInPlace(*blocks[g]);
    mean->ScaleInPlace(1.0f / static_cast<float>(num_blocks));
    views.assign(num_blocks, mean);  // analyze:allow(alloc): thread_local capacity reuse
    ConcatColsInto(views, concat);
    Matrix* fused = MlpForward(dp_fuse_, *concat, ws);
    ReluInPlace(fused);
    return fused;
  }
  switch (config_.dp_attention) {
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
      Matrix* fused = MlpForward(dp_fuse_, *concat, ws);
      ReluInPlace(fused);
      return fused;
    }
    case DpAttention::kGate: {
      views.clear();
      for (int64_t g = 0; g < num_blocks; ++g) {
        Matrix* gate = LinearForward(*blocks[g], gate_layers_[g].weight,
                                     gate_layers_[g].bias, ws);
        SigmoidInPlace(gate);
        Matrix* scaled_g = ws->Acquire(rows, cols);
        ScaleRowsInto(*blocks[g], *gate, scaled_g);
        views.push_back(scaled_g);  // analyze:allow(alloc): thread_local capacity reuse
      }
      ConcatColsInto(views, concat);
      Matrix* fused = MlpForward(dp_fuse_, *concat, ws);
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
        Matrix* score = LinearForward(*pair, recursive_layers_[g].weight,
                                      recursive_layers_[g].bias, ws);
        SigmoidInPlace(score);
        ScaleRowsInto(*blocks[g], *score, scaled);
        acc->AddInPlace(*scaled);
      }
      Matrix* fused = LinearForward(*acc, jk_fuse_.weight, jk_fuse_.bias, ws);
      ReluInPlace(fused);
      return fused;
    }
    case DpAttention::kJk: {
      ConcatColsInto(blocks, concat);
      Matrix* fused =
          LinearForward(*concat, jk_fuse_.weight, jk_fuse_.bias, ws);
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

  Matrix* combined = nullptr;
  if (config_.use_hop_attention && steps_ > 1) {
    Matrix* hop_concat =
        ws->Acquire(fused[0]->rows(), steps_ * fused[0]->cols());
    ConcatColsInto(fused, hop_concat);
    Matrix* scores = LinearForward(*hop_concat, hop_scorer_.weight,
                                   hop_scorer_.bias, ws);
    Matrix* weights = ws->Acquire(scores->rows(), scores->cols());
    SoftmaxRowsInto(*scores, weights);
    Matrix* column = ws->Acquire(fused[0]->rows(), 1);
    combined = ws->Acquire(fused[0]->rows(), fused[0]->cols());
    Matrix* weighted = ws->Acquire(fused[0]->rows(), fused[0]->cols());
    for (int l = 0; l < steps_; ++l) {
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
    for (int l = 1; l < steps_; ++l) combined->AddInPlace(*fused[l]);
    if (steps_ > 1) {
      combined->ScaleInPlace(1.0f / static_cast<float>(steps_));
    }
  }
  // Training applies Dropout here; in eval mode it is the identity. The
  // returned logits are copied out of the workspace so the caller owns them
  // past the next Reset (batch x classes — the one small copy per forward).
  return *MlpForward(classifier_, *combined, ws);
}

Matrix InferenceSession::ForwardAll() const {
  ForwardScratch& scratch = Scratch();
  scratch.ws.Reset();
  scratch.block_views.resize(blocks_.size());
  for (size_t l = 0; l < blocks_.size(); ++l) {
    scratch.block_views[l].clear();
    for (const Matrix& block : blocks_[l]) {
      scratch.block_views[l].push_back(&block);
    }
  }
  return ForwardBlocks(scratch.block_views, dp_weights_, &scratch.ws);
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
  scratch.block_views.resize(blocks_.size());  // analyze:allow(alloc): thread_local capacity reuse
  for (size_t l = 0; l < blocks_.size(); ++l) {
    scratch.block_views[l].clear();
    for (const Matrix& block : blocks_[l]) {
      Matrix* gathered = scratch.ws.Acquire(
          static_cast<int64_t>(nodes.size()), block.cols());
      GatherRowsInto(block, nodes, gathered);
      scratch.block_views[l].push_back(gathered);  // analyze:allow(alloc): thread_local capacity reuse
    }
  }
  if (dp_weights_.empty()) {
    scratch.dp_rows.Resize(0, 0);
  } else {
    GatherRowsInto(dp_weights_, nodes, &scratch.dp_rows);
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
