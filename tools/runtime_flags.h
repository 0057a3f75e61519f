#pragma once
// The process-wide runtime flags that adpa_cli, adpa_serve and the paper
// bench binaries share.

#include <cstdint>
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
  const std::optional<int64_t> threads =
      CountFlag(flags, "threads", 0, 0, kMaxThreads);
  if (!threads) return usage();
  SetNumThreads(static_cast<int>(*threads));
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
