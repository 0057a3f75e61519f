#include "src/serve/hot_swap.h"

#include <utility>

#include "src/core/failpoint.h"
#include "src/io/checkpoint.h"

namespace adpa::serve {

Result<SessionRegistry::ReloadInfo> SessionRegistry::Reload(
    const std::string& path) {
  // Everything slow — disk, CRC, propagation replay — happens before the
  // flip; the old session serves until the new one is complete.
  ADPA_FAILPOINT("net.reload.load");
  Result<Checkpoint> checkpoint = TryLoadCheckpoint(path);
  if (!checkpoint.ok()) return checkpoint.status();
  Result<InferenceSession> session =
      InferenceSession::Create(*checkpoint, *dataset_);
  if (!session.ok()) return session.status();

  current_ = std::make_unique<const InferenceSession>(std::move(*session));
  path_ = path;
  ReloadInfo info;
  info.path = path;
  info.model_name = checkpoint->model_name;
  info.generation = ++generation_;
  return info;
}

Result<SessionRegistry::ReloadInfo> SessionRegistry::ReloadCurrent() {
  if (path_.empty()) {
    return Status::FailedPrecondition(
        "no checkpoint has been loaded yet; nothing to re-read");
  }
  return Reload(std::string(path_));  // a copy: Reload assigns path_
}

}  // namespace adpa::serve
