// Fixture: locks and shared ownership in a single-owner layer must trip
// single-owner. This is the session registry as it was guarded before the
// serving loop became its one owner.
#include "src/core/mutex.h"

#include <memory>
#include <string>

namespace adpa::serve {

class InferenceSession;

class SessionRegistry {
 public:
  std::shared_ptr<const InferenceSession> Current() const {
    MutexLock lock(&mu_);
    return current_;
  }

 private:
  // A Mutex named only in a comment is not a finding.
  mutable Mutex mu_;
  CondVar reloaded_;
  std::shared_ptr<const InferenceSession> current_;
  std::string path_;
  // Suppressed: the escape hatch must silence the rule.
  std::shared_ptr<const InferenceSession> waived_;  // lint:allow(single-owner)
  // Not findings: unique ownership and plain counters.
  std::unique_ptr<const InferenceSession> owned_;
  int64_t generation_ = 0;
};

}  // namespace adpa::serve
