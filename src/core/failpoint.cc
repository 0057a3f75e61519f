#include "src/core/failpoint.h"

#include <algorithm>

namespace adpa::failpoint {

std::vector<std::pair<std::string, std::string>> Catalog() {
  // Keep in sync with the ADPA_FAILPOINT call sites; failpoint_test
  // cross-checks that Configure accepts every entry. DESIGN.md §10 carries
  // the same table with the recovery behavior per seam.
  return {
      {"binary.write", "BinaryWriter::WriteBytes, before the stream write"},
      {"binary.read", "BinaryReader::ReadBytes, before the stream read"},
      {"checkpoint.save", "SaveCheckpointToStream, before serialization"},
      {"checkpoint.load", "TryLoadCheckpointFromStream, before parsing"},
      {"atomic_file.open", "AtomicFileWriter::Commit, before the temp open"},
      {"atomic_file.write.partial",
       "AtomicFileWriter::Commit, after half the payload is on disk"},
      {"atomic_file.before_rename",
       "AtomicFileWriter::Commit, temp complete but not yet renamed"},
      {"atomic_file.after_rename",
       "AtomicFileWriter::Commit, after the atomic rename landed"},
      {"dataset.load", "LoadDatasetFromStream, before parsing"},
      {"trainer.epoch", "TrainModelResumable, top of each epoch iteration"},
      {"trainer.snapshot", "TrainModelResumable, before a periodic snapshot"},
      {"net.accept", "net::AcceptConnection, before the accept syscall"},
      {"net.accept.emfile",
       "net::AcceptConnection, reports fd exhaustion as if accept hit "
       "EMFILE"},
      {"net.read", "net::ReadSome, before the recv syscall"},
      {"net.read.short", "net::ReadSome, caps the read at 1 byte"},
      {"net.write", "net::WriteSome, before the send syscall"},
      {"net.write.short", "net::WriteSome, caps the write at 1 byte"},
      {"net.reload.load",
       "SessionRegistry::Reload, before the checkpoint read"},
  };
}

}  // namespace adpa::failpoint

#if ADPA_FAILPOINTS_ENABLED

#include <time.h>    // nanosleep: POSIX sleep without <thread> (lint)
#include <unistd.h>  // _exit: die without flushing, like a power cut

#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/core/chaos.h"
#include "src/core/mutex.h"
#include "src/core/thread_annotations.h"

namespace adpa::failpoint {
namespace {

enum class Action { kError, kCrash, kDelay };

struct PointConfig {
  Action action = Action::kError;
  std::string message;     // extra detail for kError
  int64_t delay_ms = 0;    // kDelay
  int exit_code = 42;      // kCrash
  uint64_t nth = 0;        // fire only on hit N (1-based); 0 = every hit
  uint64_t one_in = 0;     // fire on hits N, 2N, ...; 0 = every hit
  uint64_t hits = 0;
};

struct Registry {
  Mutex mu;
  std::map<std::string, PointConfig> points ADPA_GUARDED_BY(mu);
  bool env_loaded ADPA_GUARDED_BY(mu) = false;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives all users
  return *registry;
}

bool KnownName(const std::string& name) {
  const auto catalog = Catalog();
  return std::any_of(catalog.begin(), catalog.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

bool AllDigits(const std::string& text) {
  return !text.empty() &&
         text.find_first_not_of("0123456789") == std::string::npos;
}

/// Parses "action[(arg)][@trigger]" into `config`.
Status ParseSpec(const std::string& name, const std::string& spec,
                 PointConfig* config) {
  std::string body = spec;
  const size_t at = body.rfind('@');
  std::string trigger;
  if (at != std::string::npos) {
    trigger = body.substr(at + 1);
    body = body.substr(0, at);
    if (trigger.empty()) {
      return Status::InvalidArgument("failpoint " + name +
                                     ": '@' with no trigger (want @N or "
                                     "@1inN)");
    }
  }
  std::string action = body, arg;
  const size_t paren = body.find('(');
  if (paren != std::string::npos) {
    if (body.back() != ')') {
      return Status::InvalidArgument("failpoint " + name +
                                     ": unterminated '(' in action \"" +
                                     spec + "\"");
    }
    action = body.substr(0, paren);
    arg = body.substr(paren + 1, body.size() - paren - 2);
  }
  if (action == "error") {
    config->action = Action::kError;
    config->message = arg;
  } else if (action == "crash") {
    config->action = Action::kCrash;
    if (!arg.empty()) {
      if (!AllDigits(arg)) {
        return Status::InvalidArgument(
            "failpoint " + name + ": crash exit code must be a non-negative "
            "integer, got \"" + arg + "\"");
      }
      config->exit_code = std::atoi(arg.c_str());
    }
  } else if (action == "delay") {
    config->action = Action::kDelay;
    if (!AllDigits(arg)) {
      return Status::InvalidArgument(
          "failpoint " + name + ": delay needs milliseconds in [0, 60000]");
    }
    config->delay_ms = std::atoll(arg.c_str());
    if (config->delay_ms > 60'000) {
      return Status::InvalidArgument(
          "failpoint " + name + ": delay needs milliseconds in [0, 60000]");
    }
  } else {
    return Status::InvalidArgument("failpoint " + name +
                                   ": unknown action \"" + action +
                                   "\" (want error|crash|delay|off)");
  }
  if (!trigger.empty()) {
    const bool one_in = trigger.rfind("1in", 0) == 0;
    const std::string count = one_in ? trigger.substr(3) : trigger;
    if (count.empty() ||
        count.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("failpoint " + name +
                                     ": bad trigger \"@" + trigger +
                                     "\" (want @N or @1inN)");
    }
    const uint64_t n = std::strtoull(count.c_str(), nullptr, 10);
    if (n == 0) {
      return Status::InvalidArgument("failpoint " + name +
                                     ": trigger count must be positive");
    }
    (one_in ? config->one_in : config->nth) = n;
  }
  return Status::OK();
}

Status ConfigureLocked(Registry& registry, const std::string& name,
                       const std::string& spec)
    ADPA_REQUIRES(registry.mu) {
  if (!KnownName(name)) {
    return Status::InvalidArgument(
        "unknown failpoint \"" + name +
        "\" (see adpa::failpoint::Catalog for the registered names)");
  }
  if (spec == "off") {
    registry.points.erase(name);
    return Status::OK();
  }
  PointConfig config;
  ADPA_RETURN_IF_ERROR(ParseSpec(name, spec, &config));
  registry.points[name] = config;
  return Status::OK();
}

Status ConfigureFromStringLocked(Registry& registry,
                                 const std::string& specs)
    ADPA_REQUIRES(registry.mu) {
  size_t start = 0;
  while (start <= specs.size()) {
    size_t end = specs.find(';', start);
    if (end == std::string::npos) end = specs.size();
    const std::string entry = specs.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint spec entry \"" + entry +
                                     "\" has no '=' (want name=action)");
    }
    ADPA_RETURN_IF_ERROR(
        ConfigureLocked(registry, entry.substr(0, eq), entry.substr(eq + 1)));
  }
  return Status::OK();
}

/// One-time pickup of the ADPA_FAILPOINTS env var. A malformed spec is a
/// hard abort: a crash harness that silently runs with no faults armed
/// would report vacuous green.
void LoadEnvLocked(Registry& registry) ADPA_REQUIRES(registry.mu) {
  if (registry.env_loaded) return;
  registry.env_loaded = true;
  // Chaos schedule first, explicit ADPA_FAILPOINTS second: a hand-written
  // entry overrides whatever the schedule armed for the same point.
  const char* chaos_env = std::getenv("ADPA_CHAOS");
  if (chaos_env != nullptr && chaos_env[0] != '\0') {
    const auto spec = ParseChaosSpec(chaos_env);
    const auto schedule =
        spec.ok() ? BuildChaosSchedule(*spec) : Result<ChaosSchedule>(
                                                    spec.status());
    if (!schedule.ok()) {
      std::fprintf(stderr, "chaos: bad ADPA_CHAOS value \"%s\": %s\n",
                   chaos_env, schedule.status().message().c_str());
      // A malformed schedule must not run silently fault-free — same
      // contract as a malformed ADPA_FAILPOINTS spec below.
      // lint:allow(no-bare-exit) — invalid env spec must not run silently
      _exit(41);
    }
    for (const auto& point : schedule->points) {
      const Status armed = ConfigureLocked(registry, point.name, point.spec);
      if (!armed.ok()) {
        std::fprintf(stderr, "chaos: failed to arm %s=%s: %s\n",
                     point.name.c_str(), point.spec.c_str(),
                     armed.message().c_str());
        // lint:allow(no-bare-exit) — generator/parser drift is a bug
        _exit(41);
      }
    }
    // Realized schedule goes to stderr so any failure replays from the
    // seed: tools/soak.sh greps and diffs these `chaos:` lines.
    std::fprintf(stderr, "%s", schedule->Describe().c_str());
  }
  const char* env = std::getenv("ADPA_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return;
  const Status status = ConfigureFromStringLocked(registry, env);
  if (!status.ok()) {
    // Can't use ADPA_CHECK here (logging.h depends on nothing, but keep
    // failpoint.cc dependency-free too); mirror its fail-fast behavior.
    // lint:allow(no-bare-exit) — invalid env spec must not run silently
    _exit(41);
  }
}

}  // namespace

Status Configure(const std::string& name, const std::string& spec) {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mu);
  registry.env_loaded = true;  // explicit config supersedes the env var
  return ConfigureLocked(registry, name, spec);
}

Status ConfigureFromString(const std::string& specs) {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mu);
  registry.env_loaded = true;
  return ConfigureFromStringLocked(registry, specs);
}

void ClearAll() {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mu);
  registry.points.clear();
}

uint64_t HitCount(const std::string& name) {
  Registry& registry = GetRegistry();
  MutexLock lock(&registry.mu);
  const auto it = registry.points.find(name);
  return it == registry.points.end() ? 0 : it->second.hits;
}

Status Hit(const char* name) {
  Registry& registry = GetRegistry();
  PointConfig fired;
  {
    MutexLock lock(&registry.mu);
    LoadEnvLocked(registry);
    const auto it = registry.points.find(name);
    if (it == registry.points.end()) return Status::OK();
    PointConfig& config = it->second;
    ++config.hits;
    const bool fires =
        config.nth != 0   ? config.hits == config.nth
        : config.one_in != 0 ? config.hits % config.one_in == 0
                             : true;
    if (!fires) return Status::OK();
    fired = config;
  }
  switch (fired.action) {
    case Action::kError:
      return Status::Internal(
          std::string("failpoint ") + name + ": injected failure" +
          (fired.message.empty() ? "" : " (" + fired.message + ")"));
    case Action::kCrash:
      // Simulated power cut: no flushing, no atexit, no destructors.
      // lint:allow(no-bare-exit) — this is the failpoint crash action
      _exit(fired.exit_code);
    case Action::kDelay: {
      timespec duration;
      duration.tv_sec = static_cast<time_t>(fired.delay_ms / 1000);
      duration.tv_nsec = static_cast<long>(fired.delay_ms % 1000) * 1'000'000;
      nanosleep(&duration, nullptr);
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace adpa::failpoint

#endif  // ADPA_FAILPOINTS_ENABLED
