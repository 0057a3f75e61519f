#pragma once
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/status.h"

/// Deterministic fault injection for the persistence/serving/training seams
/// (DESIGN.md §10). A failpoint is a named hook compiled into the binary
/// only when the build sets -DADPA_FAILPOINTS=ON (cmake option →
/// ADPA_ENABLE_FAILPOINTS); in a plain Release build the macros expand to
/// nothing and the library contains no failpoint symbols at all — zero
/// overhead is part of the contract, not an optimization.
///
/// When compiled in, failpoints stay dormant until activated at runtime,
/// either programmatically (tests call failpoint::Configure) or through the
/// ADPA_FAILPOINTS environment variable (tools/crash_harness.sh drives
/// child processes this way):
///
///   ADPA_FAILPOINTS='checkpoint.save=error;trainer.epoch=crash@8'
///
/// Spec grammar, per `;`-separated entry:
///
///   <name>=<action>[@<trigger>]
///   action  := error[(message)] | crash[(exit_code)] | delay(ms) | off
///   trigger := N        fire on exactly the N-th hit (1-based), once
///            | 1inN     fire on every N-th hit (N, 2N, 3N, ...)
///   (no trigger: fire on every hit)
///
/// Triggers count hits with a per-point counter under a mutex —
/// deterministic by construction, never wall-clock or RNG driven — so a
/// crash scheduled for "the 8th epoch" lands on the 8th epoch every run.
///
/// Actions:
///   error  the hook evaluates to Status::Internal (callers propagate or
///          degrade exactly as they would for a real I/O failure)
///   crash  _exit(exit_code) on the spot — no atexit handlers, no stream
///          flushing — simulating SIGKILL/power loss (default code 42)
///   delay  nanosleep for the given milliseconds, then proceed (for queue
///          deadline/overload testing)

#if defined(ADPA_ENABLE_FAILPOINTS)
#define ADPA_FAILPOINTS_ENABLED 1
#else
#define ADPA_FAILPOINTS_ENABLED 0
#endif

namespace adpa::failpoint {

/// True when the failpoint hooks are compiled into this binary.
constexpr bool CompiledIn() { return ADPA_FAILPOINTS_ENABLED == 1; }

/// Every failpoint name wired into the library, with the seam it guards.
/// Configure rejects names outside this list (catches typos in env specs).
std::vector<std::pair<std::string, std::string>> Catalog();

#if ADPA_FAILPOINTS_ENABLED

/// Activates one failpoint from an action spec (grammar above, without the
/// `name=` prefix), e.g. Configure("checkpoint.save", "error@2").
/// InvalidArgument on unknown names or unparsable specs.
Status Configure(const std::string& name, const std::string& spec);

/// Parses a full `name=action;name=action` spec string (the
/// ADPA_FAILPOINTS env format). Empty entries are ignored.
Status ConfigureFromString(const std::string& specs);

/// Deactivates every failpoint and resets all hit counters.
void ClearAll();

/// Hits recorded for `name` since the last ClearAll (0 if never configured;
/// dormant points do not count hits).
uint64_t HitCount(const std::string& name);

/// The hook the macros expand to: records a hit and performs the configured
/// action. OK when the point is dormant or the trigger does not fire.
Status Hit(const char* name);

#else  // !ADPA_FAILPOINTS_ENABLED

/// Compiled-out stubs: configuration is refused loudly (a test that needs
/// failpoints must skip, not silently pass), everything else is a no-op.
inline Status Configure(const std::string&, const std::string&) {
  return Status::FailedPrecondition(
      "failpoints are compiled out; build with -DADPA_FAILPOINTS=ON");
}
inline Status ConfigureFromString(const std::string&) {
  return Status::FailedPrecondition(
      "failpoints are compiled out; build with -DADPA_FAILPOINTS=ON");
}
inline void ClearAll() {}
inline uint64_t HitCount(const std::string&) { return 0; }
inline Status Hit(const char*) { return Status::OK(); }

#endif  // ADPA_FAILPOINTS_ENABLED

}  // namespace adpa::failpoint

#if ADPA_FAILPOINTS_ENABLED

/// Statement form for Status/Result-returning functions: propagates an
/// injected error as if the next operation had failed.
#define ADPA_FAILPOINT(name)                                        \
  do {                                                              \
    ::adpa::Status _adpa_fp = ::adpa::failpoint::Hit(name);         \
    if (!_adpa_fp.ok()) return _adpa_fp;                            \
  } while (false)

/// Expression form for call sites that latch or degrade instead of
/// returning (BinaryWriter::WriteBytes, the short-transfer socket seams).
#define ADPA_FAILPOINT_STATUS(name) ::adpa::failpoint::Hit(name)

#else  // !ADPA_FAILPOINTS_ENABLED

#define ADPA_FAILPOINT(name) \
  do {                       \
  } while (false)
#define ADPA_FAILPOINT_STATUS(name) ::adpa::Status::OK()

#endif  // ADPA_FAILPOINTS_ENABLED
