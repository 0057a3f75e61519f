#pragma once
#include <cstdint>
#include <memory>
#include <string>

#include "src/core/mutex.h"
#include "src/core/status.h"
#include "src/core/thread_annotations.h"
#include "src/serve/engine.h"

namespace adpa::serve {

/// Atomic hot checkpoint swap for live serving (DESIGN.md §14).
///
/// The registry owns the currently serving InferenceSession behind a
/// shared_ptr. Readers (the serving loop, around each batcher flush) take a
/// reference with Current() and keep the session alive for the whole flush;
/// Reload() builds a replacement session off to the side — checkpoint read,
/// CRC check, dataset-hash validation, Eq. 9 propagation replay or cache
/// load — and only when the new session is fully constructed flips the
/// pointer under the mutex. In-flight batches keep serving from the old
/// session until their shared_ptr releases it; new batches pick up the new
/// one. A reload that fails at any stage leaves the serving pointer
/// untouched: the live session keeps answering, the error goes back to the
/// admin client as a structured reply.
///
/// Thread safety: Current()/current_path()/generation() are safe from any
/// thread. Concurrent Reload() calls are safe too — each builds its own
/// candidate and the flips serialize on the mutex (last flip wins) — but
/// the intended topology is simpler: the single-threaded network event loop
/// (src/net/server.cc) is the only caller, so admin reload requests are
/// naturally serialized in arrival order.
class SessionRegistry {
 public:
  /// `dataset` must outlive the registry. `options` applies to every load,
  /// so a propagation cache configured once keeps accelerating reloads
  /// (same dataset ⇒ same content-hash key ⇒ cache hit).
  SessionRegistry(const Dataset* dataset, EngineOptions options)
      : dataset_(dataset), options_(std::move(options)) {}

  /// The serving session; null until the first successful Reload.
  std::shared_ptr<const InferenceSession> Current() const
      ADPA_EXCLUDES(mu_);

  struct ReloadInfo {
    std::string path;
    std::string model_name;
    /// Monotone swap counter: 1 after the initial load, +1 per swap.
    int64_t generation = 0;
    bool used_propagation_cache = false;
  };

  /// Loads `path` and, on success, atomically makes it the serving
  /// session. On failure the previous session (if any) keeps serving.
  /// Failpoint `net.reload.load` fires before the checkpoint read.
  ADPA_NODISCARD Result<ReloadInfo> Reload(const std::string& path)
      ADPA_EXCLUDES(mu_);

  /// Re-reads the path of the last successful load — the SIGHUP action
  /// ("the checkpoint file was replaced on disk; pick it up").
  ADPA_NODISCARD Result<ReloadInfo> ReloadCurrent() ADPA_EXCLUDES(mu_);

  /// Path of the last successful load ("" before the first).
  std::string current_path() const ADPA_EXCLUDES(mu_);
  int64_t generation() const ADPA_EXCLUDES(mu_);

 private:
  const Dataset* const dataset_;
  const EngineOptions options_;

  mutable Mutex mu_;
  std::shared_ptr<const InferenceSession> current_ ADPA_GUARDED_BY(mu_);
  std::string path_ ADPA_GUARDED_BY(mu_);
  int64_t generation_ ADPA_GUARDED_BY(mu_) = 0;
};

}  // namespace adpa::serve
