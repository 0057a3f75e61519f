#pragma once
#include <cstdint>
#include <string>
#include <vector>

namespace adpa::simd {

/// Instruction-set level of the kernel implementations behind the dense and
/// sparse tensor ops (DESIGN.md §12). Levels are ordered: a higher level is
/// preferred when the CPU supports it.
///
/// Determinism contract per level: every kernel fixes its per-output-element
/// accumulation order as a function of shapes only, so results at one level
/// are bitwise identical run-to-run and for any thread count. The float32
/// kernels (SpMM, the elementwise ops) are written once for every level and
/// give the same bits at every level, in every build. The dense GEMMs may
/// differ from level to level in the low bits (float32 runs in the AVX-512
/// MatMul, lane-split dot chains in A*Bᵀ); the KernelTable docs state each
/// GEMM's chain per level, and which of them agree bit for bit across levels
/// (tests/simd_test.cc checks every chain against the per-element loops of
/// tests/gemm_oracle.h).
enum class Level {
  kPortable = 0,  ///< Plain C++: the pre-dispatch GEMM loops, unchanged.
  kAvx2 = 1,      ///< AVX2 + FMA, 256-bit lanes.
  kAvx512 = 2,    ///< AVX-512F, 512-bit lanes.
};

/// Lowercase level name ("portable", "avx2", "avx512").
const char* LevelName(Level level);

/// Parses a level name as produced by LevelName. Returns false (and leaves
/// `*out` untouched) on an unknown name.
bool ParseLevel(const std::string& name, Level* out);

/// True when the running CPU can execute kernels of the given level.
/// kPortable is always supported.
bool LevelSupported(Level level);

/// All levels the running CPU supports, in ascending order (kPortable
/// first). Never empty.
std::vector<Level> SupportedLevels();

/// The level kernels currently dispatch to. Resolved once on first use:
/// the ADPA_SIMD_LEVEL environment variable if set (aborts on an unknown or
/// unsupported value — an explicit request must not degrade silently),
/// otherwise the highest supported level.
Level ActiveLevel();

/// Overrides the dispatch level (tests sweep every supported level on one
/// machine; the CLI exposes --simd_level). Aborts if the CPU does not
/// support `level`. Not thread-safe against concurrently running kernels —
/// call between kernel invocations, like SetNumThreads.
void SetLevel(Level level);

/// Function-pointer table of the level-specialized inner kernels. The
/// public tensor ops (adpa::MatMul family, SparseMatrix::Multiply, the
/// elementwise Matrix updates) keep their signatures and route their inner
/// loops through this table; every row/panel primitive here writes only to
/// the output range it is handed, so the ParallelFor partitioning done by
/// the callers preserves the thread-count-invariance contract unchanged.
struct KernelTable {
  /// Dense GEMM panel (MatMul): computes output rows [i_begin, i_end) of
  /// a*b. `a` is row-major n x k, `b` row-major k x m, `out` row-major
  /// n x m, fully overwritten in the row range.
  ///
  /// Accumulation discipline: the portable and AVX2 levels accumulate each
  /// output element in one double chain over p = 0..k-1 in increasing
  /// order (they widen `a` a row panel at a time). The AVX-512 level
  /// accumulates fixed 128-step runs in float32 FMAs and folds each
  /// completed run into a double accumulator — the unbounded-k direction
  /// still accumulates in double, at twice the FMA throughput. Either way
  /// the order is a pure function of shapes, so every level is bitwise
  /// thread-count invariant. Portable and AVX2 give the same bits; AVX-512
  /// differs from them to rel-error.
  void (*gemm_rows)(const float* a, const float* b, int64_t i_begin,
                    int64_t i_end, int64_t k, int64_t m, float* out);

  /// A*Bᵀ panel (MatMulTransposeB): computes output rows [i_begin, i_end)
  /// of a*bᵀ. `a` is row-major n x k, `b` row-major m x k, `out` row-major
  /// n x m, fully overwritten in the row range.
  ///
  /// Element (i, j) is a lane-split double dot product of a_i and b_j with
  /// L lanes — 1 at portable, 8 at AVX2, 16 at AVX-512: lane l sums the
  /// terms p ≡ l (mod L) of the first floor(k/L)·L, in increasing p; the
  /// result is 0.0 + lane 0 + … + lane L-1, then the remaining k mod L
  /// terms in p order, rounded once to float. At L = 1 this is the plain
  /// increasing-p chain, so portable MatMulTransposeB(a, b) equals
  /// MatMul(a, bᵀ) bit for bit. Each level computes many elements at once
  /// in register tiles but keeps every element's chain, so the bits depend
  /// on the level and the shapes only (tests/gemm_oracle.h states the
  /// chain as a per-element loop).
  void (*gemm_bt_rows)(const float* a, const float* b, int64_t i_begin,
                       int64_t i_end, int64_t k, int64_t m, float* out);

  /// Aᵀ*B panel (MatMulTransposeA): computes output rows [p_begin, p_end)
  /// of aᵀ*b. `a` is row-major n x k, `b` row-major n x m, `out` row-major
  /// k x m, fully overwritten in the row range.
  ///
  /// Element (p, j) is one double sum over i = 0..n-1 in increasing order
  /// that skips every a[i][p] == 0 (±0; the skip keeps an Inf or NaN in
  /// `b` out of rows whose `a` entry is zero), rounded once to float. The
  /// chain is the same at every level, so every level gives the same bits.
  void (*gemm_at_rows)(const float* a, const float* b, int64_t n, int64_t k,
                       int64_t m, int64_t p_begin, int64_t p_end, float* out);

  /// CSR SpMM over output rows [row_begin, row_end): overwrites
  /// out[r] = sum_p values[p] * dense[col_idx[p]] for each row. Each
  /// element starts at +0.0f and adds its terms in CSR order in float32,
  /// one FMA (one rounding) per term, at every level. Blocked over the
  /// feature dimension so the gathered dense rows stay cache resident.
  void (*spmm_rows)(const int64_t* row_ptr, const int32_t* col_idx,
                    const float* values, const float* dense, int64_t cols,
                    int64_t row_begin, int64_t row_end, float* out);

  /// Elementwise span kernels: one float32 operation per element, rounded
  /// once (axpy is an FMA), so every level gives the same bits.
  void (*add)(float* dst, const float* src, int64_t n);        // dst += src
  void (*sub)(float* dst, const float* src, int64_t n);        // dst -= src
  void (*mul)(float* dst, const float* src, int64_t n);        // dst *= src
  void (*scale)(float* dst, float factor, int64_t n);          // dst *= f
  void (*axpy)(float* dst, const float* src, float factor,
               int64_t n);                                     // dst += f*src
  void (*scale_to)(float* dst, const float* src, float factor,
                   int64_t n);                                 // dst = f*src
};

/// The kernel table for ActiveLevel().
const KernelTable& Kernels();

/// The kernel table for a specific level (aborts if unsupported). The
/// parity suite uses this to compare levels side by side.
const KernelTable& KernelsFor(Level level);

}  // namespace adpa::simd
