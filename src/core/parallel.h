#pragma once
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

namespace adpa {

/// Process-wide parallel execution runtime.
///
/// A lazily-initialized persistent thread pool backs `ParallelFor`, the
/// single primitive every compute hot path (dense kernels, SpMM, DP
/// propagation, grid-search trials) is built on.
///
/// Determinism contract: `ParallelFor` splits `[begin, end)` into contiguous
/// chunks and every index is processed exactly once by exactly one thread.
/// Kernels built on it partition *output* elements, so as long as the chunk
/// body writes only to its own range and reads shared inputs, results are
/// bitwise identical for any thread count (1, 2, 8, ...). Reductions that
/// would need cross-chunk combining (SumAll, FrobeniusNorm, ...) stay
/// serial for exactly this reason.
///
/// Thread-count resolution order:
///   1. `SetNumThreads(n)` with n >= 1 (the `--threads` flag ends up here),
///   2. the `ADPA_NUM_THREADS` environment variable,
///   3. `std::thread::hardware_concurrency()`, clamped to kMaxThreads.
///
/// Nested `ParallelFor` calls (a parallel kernel inside a parallel
/// grid-search trial, for example) execute inline on the calling worker, so
/// nesting is always safe and never oversubscribes.

/// The widest pool there can be. The pool starts every worker at once, so
/// without a cap a mistyped width would start that many OS threads.
inline constexpr int kMaxThreads = 1024;

/// Parses a thread-count setting (`--threads`, `ADPA_NUM_THREADS`): decimal
/// digits only, 0..kMaxThreads, where 0 means automatic detection. Anything
/// else (empty, signed, fractional, out of range) is nullopt.
std::optional<int> ParseThreadCount(std::string_view text);

/// Current thread-pool width (>= 1).
int GetNumThreads();

/// Reconfigures the pool width. `num_threads <= 0` restores automatic
/// detection (env var, then hardware concurrency); more than kMaxThreads is
/// a CHECK failure. Joins the old pool's workers; must not be called from
/// inside a `ParallelFor` body.
void SetNumThreads(int num_threads);

/// The width automatic detection would pick (ADPA_NUM_THREADS env var,
/// falling back to hardware_concurrency), independent of SetNumThreads. An
/// ADPA_NUM_THREADS that ParseThreadCount rejects is warned about once on
/// stderr and ignored.
int DefaultNumThreads();

/// True while the calling thread is executing a `ParallelFor` chunk. Used
/// to run nested parallel regions inline.
bool InParallelRegion();

/// RAII scope that makes every `ParallelFor` on the calling thread run
/// inline (exactly as nested parallel regions do). For latency-bound paths
/// whose individual ops are too small to amortize waking sleeping pool
/// workers — the batched serving forward pins its sub-millisecond ops this
/// way so request latency never pays a cold cross-thread hand-off. Results
/// are unchanged by the thread-count-invariance contract; this is purely a
/// scheduling decision.
class SerialSection {
 public:
  SerialSection();
  ~SerialSection();
  SerialSection(const SerialSection&) = delete;
  SerialSection& operator=(const SerialSection&) = delete;
};

/// Minimum useful work per ParallelFor chunk, in approximate scalar
/// operations (~2M). Below this, the pool hand-off (wake, fetch, join)
/// costs more than the parallel speedup buys — measured on the serve path,
/// where fanning out sub-millisecond batch ops *reduced* 8-thread QPS below
/// 1-thread QPS.
inline constexpr int64_t kMinCostPerChunk = int64_t{1} << 21;

/// Grain (minimum chunk length) for a loop whose per-index cost is
/// `cost_per_item` scalar operations: enough indices per chunk to amortize
/// the pool hand-off. Depends only on the cost estimate — itself a pure
/// function of operand shapes in every caller — so chunk layout, and with
/// it the determinism contract, never depends on runtime state.
inline constexpr int64_t GrainForCost(int64_t cost_per_item) {
  const int64_t cost = cost_per_item > 0 ? cost_per_item : 1;
  const int64_t grain = kMinCostPerChunk / cost;
  return grain > 0 ? grain : 1;
}

namespace internal {

/// Type-erased backend: splits `[begin, end)` into at most `GetNumThreads()`
/// contiguous chunks of at least `grain` indices, runs `fn(chunk_begin,
/// chunk_end)` on the pool plus the calling thread, and rethrows the first
/// exception a chunk threw after all chunks finished.
void ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn);

}  // namespace internal

/// Runs `fn(chunk_begin, chunk_end)` over a static partition of
/// `[begin, end)`. `grain` is the minimum chunk size (and the serial
/// cut-off: ranges of at most `grain` indices run inline with no pool
/// round-trip). `fn` must write only to state owned by its index range.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (end <= begin) return;
  const int64_t min_chunk = grain > 0 ? grain : 1;
  // `< 2 * min_chunk` means the range cannot produce two full grains, so
  // the pool could only ever run it as a single chunk — execute it inline
  // instead of paying the job round-trip for zero parallelism.
  if (InParallelRegion() || end - begin < 2 * min_chunk ||
      GetNumThreads() == 1) {
    std::forward<Fn>(fn)(begin, end);
    return;
  }
  // Pool hand-off (job + std::function allocation). Hot serving paths never
  // reach it: ForwardRows pins a SerialSection, so their ParallelFor calls
  // run inline through the branch above.
  // analyze:allow(alloc): pool hand-off; serving runs inline via SerialSection
  internal::ParallelForImpl(begin, end, min_chunk,
                            std::function<void(int64_t, int64_t)>(
                                std::forward<Fn>(fn)));
}

}  // namespace adpa

