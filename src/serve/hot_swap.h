#pragma once
#include <cstdint>
#include <memory>
#include <string>

#include "src/core/status.h"
#include "src/serve/engine.h"

namespace adpa::serve {

/// Hot checkpoint swap for live serving (DESIGN.md §14).
///
/// The registry owns the one serving InferenceSession. Reload() builds a
/// replacement off to the side — checkpoint read, CRC check, dataset-hash
/// validation, Eq. 9 propagation — and only once it is fully constructed
/// makes it current and destroys the old session. A reload that fails at
/// any stage leaves the serving session untouched: it keeps answering, and
/// the error goes back to the admin client as a structured reply.
///
/// One thread owns the registry: the thread running Server::Serve() while
/// it runs, and the caller before Serve() starts and after it returns. The
/// serving loop (src/net/server.cc) flushes its queue before every reload,
/// so no batch is in flight when the old session is destroyed.
class SessionRegistry {
 public:
  /// `dataset` must outlive the registry. EngineOptions is empty (see
  /// engine.h).
  SessionRegistry(const Dataset* dataset, EngineOptions /*options*/)
      : dataset_(dataset) {}

  /// The serving session; null until the first successful Reload. Valid
  /// until the next successful Reload.
  const InferenceSession* Current() const { return current_.get(); }

  struct ReloadInfo {
    std::string path;
    std::string model_name;
    /// Monotone swap counter: 1 after the initial load, +1 per swap.
    int64_t generation = 0;
  };

  /// Loads `path` and, on success, makes it the serving session. On
  /// failure the previous session (if any) keeps serving.
  /// Failpoint `net.reload.load` fires before the checkpoint read.
  ADPA_NODISCARD Result<ReloadInfo> Reload(const std::string& path);

  /// Re-reads the path of the last successful load — the SIGHUP action
  /// ("the checkpoint file was replaced on disk; pick it up").
  ADPA_NODISCARD Result<ReloadInfo> ReloadCurrent();

  /// Path of the last successful load ("" before the first).
  const std::string& current_path() const { return path_; }
  int64_t generation() const { return generation_; }

 private:
  const Dataset* const dataset_;

  std::unique_ptr<const InferenceSession> current_;
  std::string path_;
  int64_t generation_ = 0;
};

}  // namespace adpa::serve
