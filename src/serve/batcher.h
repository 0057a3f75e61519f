#pragma once
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/core/status.h"
#include "src/core/thread_annotations.h"
#include "src/serve/engine.h"
#include "src/serve/metrics.h"

namespace adpa::serve {

/// Single-threaded coalescing request queue in front of an InferenceSession.
///
/// The serving loop (src/net/server.cc) submits every request it parsed in
/// one turn, then calls `Flush`, which answers the whole queue in as few
/// `Classify` calls as `max_batch_nodes` allows, so point queries that
/// arrive together share one forward whose kernels fan out across the
/// ParallelFor worker pool. One thread owns the batcher: there is no lock,
/// no wakeup, and no per-request handle — each answer lands in a
/// caller-owned slot.
///
/// Batching never changes answers: ForwardRows is row-wise, so a node's
/// logits are bitwise identical no matter which batch it lands in.
class MicroBatcher {
 public:
  struct Options {
    /// Soft cap on nodes per coalesced forward; a single larger request
    /// still runs alone rather than being split.
    int64_t max_batch_nodes = 4096;
    /// Hard ceiling on queued requests. A Submit against a full queue is
    /// rejected with kUnavailable (counted in ServeMetrics::rejected) —
    /// bounded memory under overload, and clients get a retryable error
    /// instead of unbounded latency.
    int64_t max_queue_depth = 4096;
  };

  /// Where one request's answer lands: the predicted class per queried
  /// node, or the per-request error. Empty while the request is queued.
  using Slot = std::optional<Result<std::vector<int64_t>>>;

  /// `metrics` may be null; otherwise it must outlive the batcher.
  MicroBatcher(ServeMetrics* metrics, Options options);

  /// Queues a request whose answer lands in `*slot`, which must stay valid
  /// until the next Flush. Against a full queue the slot is filled at once
  /// with kUnavailable. `deadline_ms` > 0 bounds the queue wait: a request
  /// still queued after that long is shed with kUnavailable instead of
  /// being served stale (0 = no deadline).
  void Submit(std::vector<int64_t> nodes, int64_t deadline_ms, Slot* slot);

  /// Answers every queued request through `session`, in forwards of at
  /// most `max_batch_nodes` nodes, and leaves the queue empty. A null
  /// session (nothing loaded yet) answers FailedPrecondition. A batch that
  /// fails is re-run one request at a time, so errors stay per request.
  ADPA_HOT void Flush(const InferenceSession* session);

  int64_t queue_depth() const { return static_cast<int64_t>(queue_.size()); }

 private:
  struct Request {
    std::vector<int64_t> nodes;
    int64_t deadline_ms = 0;  ///< 0 = no deadline
    std::chrono::steady_clock::time_point enqueue_time;
    Slot* slot = nullptr;
  };

  void Deliver(Request* request, Result<std::vector<int64_t>> result);

  ServeMetrics* const metrics_;
  const Options options_;
  std::deque<Request> queue_;
  /// Flush scratch, reused so steady-state batch assembly does not
  /// allocate.
  std::vector<Request> batch_;
  std::vector<int64_t> merged_;
};

}  // namespace adpa::serve
