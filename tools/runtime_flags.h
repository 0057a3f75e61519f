#pragma once
// The flag readers that adpa_cli and adpa_serve share: bounded integer and
// real flags and the process-wide runtime flags.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "src/core/flags.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"

namespace adpa {

/// The integer flag `name` read through ParseDecimal: `fallback` when it is
/// unset, nullopt (after an error line) when it is not a decimal in
/// [lo, hi].
inline std::optional<int64_t> CountFlag(const Flags& flags, const char* name,
                                        int64_t fallback, int64_t lo,
                                        int64_t hi) {
  if (!flags.Has(name)) return fallback;
  const std::string text = flags.GetString(name, "");
  const std::optional<int64_t> value = ParseDecimal(text, lo, hi);
  if (!value.has_value()) {
    std::fprintf(stderr, "error: --%s=%s is not an integer in %lld..%lld\n",
                 name, text.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi));
  }
  return value;
}

/// The real flag `name` read through ParseReal as a `Real` (float or
/// double): `fallback` when it is unset, nullopt (after an error line) when
/// it is not a decimal with a finite `Real` value that passes `accept`,
/// which `range` states. The range is checked on the value the program
/// stores, so 0.9999999999 (1.0f) is not a float dropout below 1, nor 1e-50
/// (0.0f) a positive float learning rate.
template <typename Real>
inline std::optional<Real> RealFlag(
    const Flags& flags, const char* name, Real fallback,
    std::type_identity_t<bool (*)(Real)> accept, const char* range) {
  if (!flags.Has(name)) return fallback;
  const std::string text = flags.GetString(name, "");
  const std::optional<double> value = ParseReal(text);
  if (!value.has_value() ||
      std::fabs(*value) > std::numeric_limits<Real>::max() ||
      !accept(static_cast<Real>(*value))) {
    std::fprintf(stderr, "error: --%s=%s is not a finite real with %s\n",
                 name, text.c_str(), range);
    return std::nullopt;
  }
  return static_cast<Real>(*value);
}

/// Applies --threads=N (0..kMaxThreads; 0 = auto: ADPA_NUM_THREADS, then
/// hardware concurrency) and --simd_level=<portable|avx2|avx512>. Returns 0
/// to go on, or the exit code: `usage()`'s for a thread count outside that
/// range or an unknown level, 1 for a level this CPU does not support.
inline int ApplyRuntimeFlags(const Flags& flags, int (*usage)()) {
  if (flags.Has("threads")) {
    const std::string text = flags.GetString("threads", "");
    const std::optional<int> threads = ParseThreadCount(text);
    if (!threads.has_value()) {
      std::fprintf(stderr, "error: --threads=%s is not an integer in 0..%d\n",
                   text.c_str(), kMaxThreads);
      return usage();
    }
    SetNumThreads(*threads);
  }
  // Resolve the dispatch level eagerly so a bad ADPA_SIMD_LEVEL aborts at
  // startup instead of on the first kernel call (which some commands never
  // reach).
  simd::ActiveLevel();
  if (!flags.Has("simd_level")) return 0;
  const std::string level_name = flags.GetString("simd_level", "");
  simd::Level level;
  if (!simd::ParseLevel(level_name, &level)) {
    std::fprintf(stderr, "error: unknown --simd_level=%s\n",
                 level_name.c_str());
    return usage();
  }
  if (!simd::LevelSupported(level)) {
    std::fprintf(stderr, "error: --simd_level=%s not supported by this CPU\n",
                 level_name.c_str());
    return 1;
  }
  simd::SetLevel(level);
  return 0;
}

}  // namespace adpa
