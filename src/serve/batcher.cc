#include "src/serve/batcher.h"

#include <string>
#include <utility>

namespace adpa::serve {

MicroBatcher::MicroBatcher(ServeMetrics* metrics, Options options)
    : metrics_(metrics), options_(options) {}

void MicroBatcher::Submit(std::vector<int64_t> nodes, int64_t deadline_ms,
                          Slot* slot) {
  Request request;
  request.nodes = std::move(nodes);
  request.deadline_ms = deadline_ms;
  // Wall-clock reads feed queue deadlines/latency metrics only, never
  // results.
  // lint:allow(deterministic-randomness)
  request.enqueue_time = std::chrono::steady_clock::now();
  request.slot = slot;
  if (static_cast<int64_t>(queue_.size()) >= options_.max_queue_depth) {
    if (metrics_ != nullptr) metrics_->RecordRejected();
    Deliver(&request,
            Status::Unavailable("queue full (" +
                                std::to_string(options_.max_queue_depth) +
                                " requests pending); retry with backoff"));
    return;
  }
  queue_.push_back(std::move(request));
  if (metrics_ != nullptr) {
    metrics_->RecordQueueDepth(static_cast<int64_t>(queue_.size()));
  }
}

void MicroBatcher::Flush(const InferenceSession* session) {
  while (!queue_.empty()) {
    // lint:allow(deterministic-randomness) — deadline check, not results
    const auto now = std::chrono::steady_clock::now();
    int64_t total_nodes = 0;
    while (!queue_.empty()) {
      Request& front = queue_.front();
      if (front.deadline_ms > 0 &&
          std::chrono::duration<double, std::milli>(now - front.enqueue_time)
                  .count() > static_cast<double>(front.deadline_ms)) {
        // Past its deadline: serving it now would hand the client an
        // answer it already gave up on — shed instead of serve stale.
        if (metrics_ != nullptr) metrics_->RecordShed();
        Deliver(&front,
                Status::Unavailable("deadline exceeded after " +
                                    std::to_string(front.deadline_ms) +  // analyze:allow(alloc): error path only
                                    " ms in queue; retry with backoff"));
        queue_.pop_front();
        continue;
      }
      const int64_t request_nodes = static_cast<int64_t>(front.nodes.size());
      if (!batch_.empty() &&
          total_nodes + request_nodes > options_.max_batch_nodes) {
        break;
      }
      total_nodes += request_nodes;
      batch_.push_back(std::move(front));  // analyze:allow(alloc): capacity reused across flushes
      queue_.pop_front();
    }

    if (session == nullptr) {
      for (Request& request : batch_) {
        Deliver(&request, Status::FailedPrecondition(
                              "no model is loaded yet; reload a checkpoint"));
      }
    } else if (!batch_.empty()) {
      merged_.clear();
      for (const Request& request : batch_) {
        merged_.insert(merged_.end(), request.nodes.begin(), request.nodes.end());  // analyze:allow(alloc): capacity reused across flushes
      }
      if (metrics_ != nullptr) {
        metrics_->RecordBatch(static_cast<int64_t>(batch_.size()));
      }
      Result<std::vector<int64_t>> all = session->Classify(merged_);
      size_t offset = 0;
      for (Request& request : batch_) {
        if (all.ok()) {
          std::vector<int64_t> slice(
              all->begin() + static_cast<int64_t>(offset),
              all->begin() +
                  static_cast<int64_t>(offset + request.nodes.size()));
          offset += request.nodes.size();
          Deliver(&request, std::move(slice));
        } else {
          // One malformed request must not poison its batch mates: fall
          // back to answering each request on its own so errors stay
          // per-request.
          Deliver(&request, session->Classify(request.nodes));
        }
      }
    }
    batch_.clear();
  }
}

void MicroBatcher::Deliver(Request* request,
                           Result<std::vector<int64_t>> result) {
  if (metrics_ != nullptr) {
    // lint:allow(deterministic-randomness) — latency metric, not results
    const auto now = std::chrono::steady_clock::now();
    const double latency_ms =
        std::chrono::duration<double, std::milli>(now - request->enqueue_time)
            .count();
    const bool ok = result.ok();
    metrics_->RecordRequest(latency_ms,
                            ok ? static_cast<int64_t>(result->size()) : 0, ok);
  }
  *request->slot = std::move(result);
}

}  // namespace adpa::serve
