#include "src/serve/hot_swap.h"

#include <utility>

#include "src/core/failpoint.h"
#include "src/io/checkpoint.h"

namespace adpa::serve {

std::shared_ptr<const InferenceSession> SessionRegistry::Current() const {
  MutexLock lock(&mu_);
  return current_;
}

Result<SessionRegistry::ReloadInfo> SessionRegistry::Reload(
    const std::string& path) {
  // Everything slow — disk, CRC, propagation replay — happens before the
  // lock; the critical section is just the pointer flip.
  ADPA_FAILPOINT("net.reload.load");
  Result<Checkpoint> checkpoint = TryLoadCheckpoint(path);
  if (!checkpoint.ok()) return checkpoint.status();
  Result<InferenceSession> session =
      InferenceSession::Create(*checkpoint, *dataset_);
  if (!session.ok()) return session.status();

  ReloadInfo info;
  info.path = path;
  info.model_name = checkpoint->model_name;
  auto next =
      std::make_shared<const InferenceSession>(std::move(*session));
  {
    MutexLock lock(&mu_);
    current_ = std::move(next);
    path_ = path;
    info.generation = ++generation_;
  }
  return info;
}

Result<SessionRegistry::ReloadInfo> SessionRegistry::ReloadCurrent() {
  std::string path;
  {
    MutexLock lock(&mu_);
    path = path_;
  }
  if (path.empty()) {
    return Status::FailedPrecondition(
        "no checkpoint has been loaded yet; nothing to re-read");
  }
  return Reload(path);
}

std::string SessionRegistry::current_path() const {
  MutexLock lock(&mu_);
  return path_;
}

int64_t SessionRegistry::generation() const {
  MutexLock lock(&mu_);
  return generation_;
}

}  // namespace adpa::serve
