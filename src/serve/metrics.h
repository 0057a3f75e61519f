#pragma once
#include <cstddef>
#include <cstdint>
#include <vector>

namespace adpa::serve {

/// Point-in-time view of the serving counters.
struct MetricsSnapshot {
  uint64_t requests = 0;       ///< completed requests (ok or error)
  uint64_t errors = 0;         ///< requests answered with a non-OK Status
  uint64_t nodes = 0;          ///< total node queries answered
  uint64_t batches = 0;        ///< forward passes executed
  uint64_t rejected = 0;       ///< requests refused at Submit (queue full)
  uint64_t shed = 0;           ///< requests dropped past their deadline
  int64_t max_queue_depth = 0; ///< high-water mark of pending requests
  double mean_batch_requests = 0.0;  ///< requests coalesced per forward
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

/// Request/batch/queue-depth counters for the serving path. Latency samples
/// are recorded by the batcher (enqueue → reply delivery) and summarized on
/// demand; wall-clock reads stay in the batcher so this class is trivially
/// testable with synthetic samples.
///
/// Memory is bounded for long-running servers: the mean is an exact running
/// sum, while p50/p99 come from a fixed-size uniform reservoir (Vitter's
/// Algorithm R over a deterministic internal PRNG — no wall clock, no
/// global seeding), so percentiles stay representative of the whole run
/// without retaining one sample per request.
///
/// One thread owns the counters: the thread running Server::Serve() while
/// it runs (every recorder call comes from its batcher), and the caller
/// before Serve() starts and after it returns.
class ServeMetrics {
 public:
  void RecordRequest(double latency_ms, int64_t nodes_answered, bool ok);
  void RecordBatch(int64_t coalesced_requests);
  void RecordQueueDepth(int64_t depth);
  /// Overload accounting: a rejection is a Submit refused on a full queue,
  /// a shed is a queued request dropped once its deadline expired. Both
  /// also surface as per-request kUnavailable errors via RecordRequest.
  void RecordRejected();
  void RecordShed();

  MetricsSnapshot Snapshot() const;

  /// Percentiles are exact up to this many requests, sampled beyond it.
  static constexpr size_t kLatencyReservoirCapacity = 4096;

 private:
  uint64_t requests_ = 0;
  uint64_t errors_ = 0;
  uint64_t nodes_ = 0;
  uint64_t batches_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_ = 0;
  uint64_t batched_requests_ = 0;
  int64_t max_queue_depth_ = 0;
  /// Over every sample ever recorded.
  double latency_sum_ms_ = 0.0;
  /// Samples offered to the reservoir.
  uint64_t latency_samples_ = 0;
  /// splitmix64 state for reservoir slot draws.
  uint64_t reservoir_state_ = 0x9e3779b97f4a7c15ull;
  /// ≤ kLatencyReservoirCapacity entries.
  std::vector<double> latencies_ms_;
};

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// Deterministic: sorts a copy, no interpolation.
double Percentile(std::vector<double> values, double p);

}  // namespace adpa::serve
