#pragma once
// The process-wide runtime flags that adpa_cli and adpa_serve share.

#include <cstdio>
#include <optional>
#include <string>

#include "src/core/flags.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"

namespace adpa {

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
