// AVX-512F kernel level (512-bit lanes). Compiled with -mavx512f (plus the
// AVX2/FMA baseline) regardless of the global architecture flags; runtime
// dispatch guarantees these functions only execute on AVX-512 CPUs.
//
// Dense GEMM precision discipline at this level: in MatMul, fixed
// kKChunk-step runs of the contraction accumulate in 16-wide float32 FMAs
// (twice the double FMA throughput), and each completed run is folded into
// per-element double accumulators — the unbounded-k direction still
// accumulates in double, so rounding error stays bounded by the fixed run
// length instead of growing with k. MatMulTransposeB keeps this level's
// 16-lane double dot chain and MatMulTransposeA the all-level increasing-row
// double chain (simd.h). The per-element order is a pure function of shapes
// (bitwise thread-count invariant within the level). The float32 kernels
// (SpMM, the elementwise ops) are the shared templates, which give every
// level's bits.

#include <cstdint>

#include "src/core/thread_annotations.h"
#include "src/tensor/simd_kernels.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

// GCC expands the float<->double conversion intrinsics through
// _mm512_undefined_pd()/_mm256_undefined_ps(), whose self-initialized
// placeholder trips -Wmaybe-uninitialized (or plain -Wuninitialized,
// depending on what the optimizer can prove) at every inlined call site
// even though the masked builtin overwrites all lanes (GCC PR105593).
// Silence the false positive for this kernel TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

#include <algorithm>

namespace adpa::simd::detail {
namespace {

// GEMM register tile: 8 output rows x 32 output columns = 16 zmm float
// accumulators, plus 2 b-row lanes and 1 broadcast — within the 32-register
// AVX-512 budget. The per-element double accumulators live in a small
// stack buffer touched only once per kKChunk contraction steps.
constexpr int64_t kMr = 8;
constexpr int64_t kNr = 32;

// Fixed float-accumulation run length. Every output element accumulates
// products p in [c*kKChunk, (c+1)*kKChunk) in float32 (single-rounding FMA
// per step), then folds the run into its double accumulator. The constant
// is part of the level's determinism contract: the chunk boundaries depend
// on k alone, never on the row/thread partition.
constexpr int64_t kKChunk = 128;

// dacc[0..15] += double(facc lane) for one 16-float accumulator. The lane
// split is float->double widening (exact) plus a double add: per element
// this is indistinguishable from a scalar `dacc += (double)facc`.
inline void SpillChunk(__m512 facc, double* dacc) {
  const __m256 lo = _mm512_castps512_ps256(facc);
  const __m256 hi =
      _mm512_castps512_ps256(_mm512_shuffle_f32x4(facc, facc, 0xEE));
  _mm512_storeu_pd(dacc + 0, _mm512_add_pd(_mm512_loadu_pd(dacc + 0),
                                           _mm512_cvtps_pd(lo)));
  _mm512_storeu_pd(dacc + 8, _mm512_add_pd(_mm512_loadu_pd(dacc + 8),
                                           _mm512_cvtps_pd(hi)));
}

// Full 8x32 register tile: rows [i0, i0+8), columns [j0, j0+32).
void Tile8x32(const float* a, const float* b, int64_t i0, int64_t j0,
              int64_t k, int64_t m, float* out) {
  alignas(64) double dacc[kMr * kNr] = {};
  for (int64_t p0 = 0; p0 < k; p0 += kKChunk) {
    const int64_t p_end = std::min<int64_t>(k, p0 + kKChunk);
    __m512 f[kMr][2];
    for (int r = 0; r < kMr; ++r) {
      f[r][0] = _mm512_setzero_ps();
      f[r][1] = _mm512_setzero_ps();
    }
    for (int64_t p = p0; p < p_end; ++p) {
      const float* b_row = b + p * m + j0;
      const __m512 b0 = _mm512_loadu_ps(b_row);
      const __m512 b1 = _mm512_loadu_ps(b_row + 16);
      for (int r = 0; r < kMr; ++r) {
        const __m512 av = _mm512_set1_ps(a[(i0 + r) * k + p]);
        f[r][0] = _mm512_fmadd_ps(av, b0, f[r][0]);
        f[r][1] = _mm512_fmadd_ps(av, b1, f[r][1]);
      }
    }
    for (int r = 0; r < kMr; ++r) {
      SpillChunk(f[r][0], dacc + r * kNr);
      SpillChunk(f[r][1], dacc + r * kNr + 16);
    }
  }
  for (int r = 0; r < kMr; ++r) {
    float* out_row = out + (i0 + r) * m + j0;
    const double* acc_row = dacc + r * kNr;
    for (int v = 0; v < 4; ++v) {
      _mm256_storeu_ps(out_row + 8 * v,
                       _mm512_cvtpd_ps(_mm512_loadu_pd(acc_row + 8 * v)));
    }
  }
}

// Single-row variant over a 32-column block: the row-tail path. Per output
// element this is the exact chunk/FMA chain of Tile8x32, so any row
// partition of the panel produces identical bits.
void Tile1x32(const float* a_row, const float* b, int64_t j0, int64_t k,
              int64_t m, float* out_row) {
  alignas(64) double dacc[kNr] = {};
  for (int64_t p0 = 0; p0 < k; p0 += kKChunk) {
    const int64_t p_end = std::min<int64_t>(k, p0 + kKChunk);
    __m512 f0 = _mm512_setzero_ps();
    __m512 f1 = _mm512_setzero_ps();
    for (int64_t p = p0; p < p_end; ++p) {
      const float* b_row = b + p * m + j0;
      const __m512 av = _mm512_set1_ps(a_row[p]);
      f0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(b_row), f0);
      f1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(b_row + 16), f1);
    }
    SpillChunk(f0, dacc);
    SpillChunk(f1, dacc + 16);
  }
  for (int v = 0; v < 4; ++v) {
    _mm256_storeu_ps(out_row + 8 * v,
                     _mm512_cvtpd_ps(_mm512_loadu_pd(dacc + 8 * v)));
  }
}

// Single-row variant over a 16-column block (column tail >= 16).
void Tile1x16(const float* a_row, const float* b, int64_t j0, int64_t k,
              int64_t m, float* out_row) {
  alignas(64) double dacc[16] = {};
  for (int64_t p0 = 0; p0 < k; p0 += kKChunk) {
    const int64_t p_end = std::min<int64_t>(k, p0 + kKChunk);
    __m512 f0 = _mm512_setzero_ps();
    for (int64_t p = p0; p < p_end; ++p) {
      f0 = _mm512_fmadd_ps(_mm512_set1_ps(a_row[p]),
                           _mm512_loadu_ps(b + p * m + j0), f0);
    }
    SpillChunk(f0, dacc);
  }
  for (int v = 0; v < 2; ++v) {
    _mm256_storeu_ps(out_row + 8 * v,
                     _mm512_cvtpd_ps(_mm512_loadu_pd(dacc + 8 * v)));
  }
}

// Scalar column tail (< 16 columns). __builtin_fmaf is the single-rounding
// scalar twin of a vector _mm512_fmadd_ps lane, so this produces the same
// bits as the vector paths would for the same element.
float ScalarChunkedDot(const float* a_row, const float* b, int64_t j,
                       int64_t k, int64_t m) {
  double dacc = 0.0;
  for (int64_t p0 = 0; p0 < k; p0 += kKChunk) {
    const int64_t p_end = std::min<int64_t>(k, p0 + kKChunk);
    float run = 0.0f;
    for (int64_t p = p0; p < p_end; ++p) {
      run = __builtin_fmaf(a_row[p], b[p * m + j], run);
    }
    dacc += static_cast<double>(run);
  }
  return static_cast<float>(dacc);
}

ADPA_HOT void GemmRowsAvx512(const float* a, const float* b, int64_t i_begin,
                             int64_t i_end, int64_t k, int64_t m,
                             float* out) {
  int64_t j0 = 0;
  for (; j0 + kNr <= m; j0 += kNr) {
    int64_t i0 = i_begin;
    for (; i0 + kMr <= i_end; i0 += kMr) {
      Tile8x32(a, b, i0, j0, k, m, out);
    }
    for (; i0 < i_end; ++i0) {
      Tile1x32(a + i0 * k, b, j0, k, m, out + i0 * m + j0);
    }
  }
  if (j0 + 16 <= m) {
    for (int64_t i0 = i_begin; i0 < i_end; ++i0) {
      Tile1x16(a + i0 * k, b, j0, k, m, out + i0 * m + j0);
    }
    j0 += 16;
  }
  if (j0 < m) {
    for (int64_t i0 = i_begin; i0 < i_end; ++i0) {
      const float* a_row = a + i0 * k;
      float* out_row = out + i0 * m;
      for (int64_t j = j0; j < m; ++j) {
        out_row[j] = ScalarChunkedDot(a_row, b, j, k, m);
      }
    }
  }
}

// The level's traits for the shared templates (simd_kernels.h): the float32
// kernels over zmm registers of 16 floats, and the backward GEMMs' register
// tiles over zmm registers of 8 doubles. A*Bᵀ keeps this level's 16-lane dot
// chain (simd.h); its tile is 4 rows by 3 panels, 2*4*3 accumulators plus 4
// operand registers. The A^T*B zero skip is a write mask, so a masked-off
// lane keeps its sum untouched, as the skipped add of the historical loop
// did.
struct Avx512 {
  using Reg = __m512d;
  using Mask = __mmask8;
  using F = __m512;
  static constexpr int kWidth = 8;
  static constexpr int kFloats = 16;
  static constexpr int kLanes = 16;
  static constexpr int kBtRows = 4;
  static constexpr int kBtPanels = 3;
  static constexpr int kAtRows = 4;
  static constexpr int kAtVecs = 4;
  static Reg Zero() { return _mm512_setzero_pd(); }
  static Reg Load(const double* src) { return _mm512_loadu_pd(src); }
  static void Store(double* dst, Reg v) { _mm512_storeu_pd(dst, v); }
  static Reg Broadcast(double x) { return _mm512_set1_pd(x); }
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg Add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static void StoreFloats(Reg v, int64_t width, float* dst) {
    const __m256 f = _mm512_cvtpd_ps(v);
    if (width >= kWidth) {
      _mm256_storeu_ps(dst, f);
      return;
    }
    float tmp[kWidth];
    _mm256_storeu_ps(tmp, f);
    for (int64_t l = 0; l < width; ++l) dst[l] = tmp[l];
  }
  static Mask NonZero(Reg w) {
    return _mm512_cmp_pd_mask(w, _mm512_setzero_pd(), _CMP_NEQ_UQ);
  }
  static Reg FmaMasked(Reg w, Reg x, Reg c, Mask mask) {
    return _mm512_mask3_fmadd_pd(w, x, c, mask);
  }
  static F LoadF(const float* src) { return _mm512_loadu_ps(src); }
  static void StoreF(float* dst, F v) { _mm512_storeu_ps(dst, v); }
  static F BroadcastF(float x) { return _mm512_set1_ps(x); }
  static F AddF(F a, F b) { return _mm512_add_ps(a, b); }
  static F SubF(F a, F b) { return _mm512_sub_ps(a, b); }
  static F MulF(F a, F b) { return _mm512_mul_ps(a, b); }
  static F FmaF(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
};

}  // namespace

const KernelTable kAvx512Table = VecTable<Avx512>(GemmRowsAvx512);

}  // namespace adpa::simd::detail

#else  // !x86-64: the AVX-512 level is never CPU-supported; alias portable.

namespace adpa::simd::detail {
const KernelTable kAvx512Table = kPortableTable;
}  // namespace adpa::simd::detail

#endif
