// AVX2 + FMA kernel level (256-bit lanes). Compiled with -mavx2 -mfma
// regardless of the global architecture flags; runtime dispatch
// (simd::ActiveLevel) guarantees these functions only execute on CPUs that
// support them.
//
// Precision discipline: the dense GEMM family accumulates in double FMAs
// over operands widened from float (exact). MatMul and MatMulTransposeA
// sum each element in the portable level's order, so they give its bits;
// MatMulTransposeB keeps this level's 8-lane dot chain (simd.h). Per output
// element the order is a fixed function of shapes, so results at this
// level are bitwise identical for any thread count. The float32 kernels
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

// Register tile: 4 output rows x 12 output columns = 12 ymm double
// accumulators, plus 3 slab lanes and 1 broadcast — exactly the 16-register
// AVX2 budget.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 12;

// Stores one row of kNr double accumulators to float output (width lanes).
inline void StoreRow(const __m256d acc0, const __m256d acc1,
                     const __m256d acc2, int64_t width, float* out_row) {
  if (width == kNr) {
    _mm_storeu_ps(out_row + 0, _mm256_cvtpd_ps(acc0));
    _mm_storeu_ps(out_row + 4, _mm256_cvtpd_ps(acc1));
    _mm_storeu_ps(out_row + 8, _mm256_cvtpd_ps(acc2));
    return;
  }
  double tmp[kNr];
  _mm256_storeu_pd(tmp + 0, acc0);
  _mm256_storeu_pd(tmp + 4, acc1);
  _mm256_storeu_pd(tmp + 8, acc2);
  for (int64_t l = 0; l < width; ++l) {
    out_row[l] = static_cast<float>(tmp[l]);
  }
}

// Packs the right operand once into kNr-column slabs, then widens `a` one
// kMr-row panel at a time and sweeps the panel over every slab.
ADPA_HOT void GemmRowsAvx2(const float* a, const float* b, int64_t i_begin,
                           int64_t i_end, int64_t k, int64_t m, float* out) {
  const int64_t num_slabs = (m + kNr - 1) / kNr;
  double* slabs = ScratchDoubles(0, num_slabs * k * kNr);
  PackColumnPanels(b, m, 1, k, m, kNr, slabs);
  double* panel = ScratchDoubles(1, kMr * k);
  int64_t i0 = i_begin;
  for (; i0 + kMr <= i_end; i0 += kMr) {
    WidenRows(a + i0 * k, kMr * k, panel);
    const double* a0 = panel + 0 * k;
    const double* a1 = panel + 1 * k;
    const double* a2 = panel + 2 * k;
    const double* a3 = panel + 3 * k;
    for (int64_t s = 0; s < num_slabs; ++s) {
      const int64_t j0 = s * kNr;
      const int64_t width = std::min<int64_t>(kNr, m - j0);
      const double* slab = slabs + s * k * kNr;
      __m256d acc[kMr][3];
      for (int64_t r = 0; r < kMr; ++r) {
        acc[r][0] = _mm256_setzero_pd();
        acc[r][1] = _mm256_setzero_pd();
        acc[r][2] = _mm256_setzero_pd();
      }
      for (int64_t p = 0; p < k; ++p) {
        const double* b_row = slab + p * kNr;
        const __m256d bv0 = _mm256_loadu_pd(b_row + 0);
        const __m256d bv1 = _mm256_loadu_pd(b_row + 4);
        const __m256d bv2 = _mm256_loadu_pd(b_row + 8);
        const __m256d av0 = _mm256_set1_pd(a0[p]);
        acc[0][0] = _mm256_fmadd_pd(av0, bv0, acc[0][0]);
        acc[0][1] = _mm256_fmadd_pd(av0, bv1, acc[0][1]);
        acc[0][2] = _mm256_fmadd_pd(av0, bv2, acc[0][2]);
        const __m256d av1 = _mm256_set1_pd(a1[p]);
        acc[1][0] = _mm256_fmadd_pd(av1, bv0, acc[1][0]);
        acc[1][1] = _mm256_fmadd_pd(av1, bv1, acc[1][1]);
        acc[1][2] = _mm256_fmadd_pd(av1, bv2, acc[1][2]);
        const __m256d av2 = _mm256_set1_pd(a2[p]);
        acc[2][0] = _mm256_fmadd_pd(av2, bv0, acc[2][0]);
        acc[2][1] = _mm256_fmadd_pd(av2, bv1, acc[2][1]);
        acc[2][2] = _mm256_fmadd_pd(av2, bv2, acc[2][2]);
        const __m256d av3 = _mm256_set1_pd(a3[p]);
        acc[3][0] = _mm256_fmadd_pd(av3, bv0, acc[3][0]);
        acc[3][1] = _mm256_fmadd_pd(av3, bv1, acc[3][1]);
        acc[3][2] = _mm256_fmadd_pd(av3, bv2, acc[3][2]);
      }
      for (int64_t r = 0; r < kMr; ++r) {
        StoreRow(acc[r][0], acc[r][1], acc[r][2], width,
                 out + (i0 + r) * m + j0);
      }
    }
  }
  // Row tail: single-row micro-kernel; per element the same sequential-k
  // FMA chain, so a row lands on the same bits whichever path computes it.
  for (; i0 < i_end; ++i0) {
    WidenRows(a + i0 * k, k, panel);
    for (int64_t s = 0; s < num_slabs; ++s) {
      const int64_t j0 = s * kNr;
      const int64_t width = std::min<int64_t>(kNr, m - j0);
      const double* slab = slabs + s * k * kNr;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      for (int64_t p = 0; p < k; ++p) {
        const double* b_row = slab + p * kNr;
        const __m256d av = _mm256_set1_pd(panel[p]);
        acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row + 0), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row + 4), acc1);
        acc2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row + 8), acc2);
      }
      StoreRow(acc0, acc1, acc2, width, out + i0 * m + j0);
    }
  }
}

// The level's traits for the shared templates (simd_kernels.h): the float32
// kernels over ymm registers of 8 floats, and the backward GEMMs' register
// tiles over ymm registers of 4 doubles, sized for the 16-register budget. A*Bᵀ keeps this level's
// 8-lane dot chain (simd.h); its tile is 3 rows by 2 panels, 2*3*2
// accumulators plus 3 operand registers. The A^T*B zero skip masks the b
// operand: a zero weight then adds 0 * 0, which leaves a double sum
// unchanged (the sum starts at +0.0 and so is never -0.0), where an
// unmasked Inf or NaN in b would have turned 0 * b into NaN.
struct Avx2 {
  using Reg = __m256d;
  using Mask = __m256d;
  using F = __m256;
  static constexpr int kWidth = 4;
  static constexpr int kFloats = 8;
  static constexpr int kLanes = 8;
  static constexpr int kBtRows = 3;
  static constexpr int kBtPanels = 2;
  static constexpr int kAtRows = 2;
  static constexpr int kAtVecs = 4;
  static Reg Zero() { return _mm256_setzero_pd(); }
  static Reg Load(const double* src) { return _mm256_loadu_pd(src); }
  static void Store(double* dst, Reg v) { _mm256_storeu_pd(dst, v); }
  static Reg Broadcast(double x) { return _mm256_set1_pd(x); }
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_pd(a, b, c); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static void StoreFloats(Reg v, int64_t width, float* dst) {
    const __m128 f = _mm256_cvtpd_ps(v);
    if (width >= kWidth) {
      _mm_storeu_ps(dst, f);
      return;
    }
    float tmp[kWidth];
    _mm_storeu_ps(tmp, f);
    for (int64_t l = 0; l < width; ++l) dst[l] = tmp[l];
  }
  static Mask NonZero(Reg w) {
    return _mm256_cmp_pd(w, _mm256_setzero_pd(), _CMP_NEQ_UQ);
  }
  static Reg FmaMasked(Reg w, Reg x, Reg c, Mask mask) {
    return _mm256_fmadd_pd(w, _mm256_and_pd(x, mask), c);
  }
  static F LoadF(const float* src) { return _mm256_loadu_ps(src); }
  static void StoreF(float* dst, F v) { _mm256_storeu_ps(dst, v); }
  static F BroadcastF(float x) { return _mm256_set1_ps(x); }
  static F AddF(F a, F b) { return _mm256_add_ps(a, b); }
  static F SubF(F a, F b) { return _mm256_sub_ps(a, b); }
  static F MulF(F a, F b) { return _mm256_mul_ps(a, b); }
  static F FmaF(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
};

}  // namespace

const KernelTable kAvx2Table = VecTable<Avx2>(GemmRowsAvx2);

}  // namespace adpa::simd::detail

#else  // !x86-64: the AVX2 level is never CPU-supported; alias portable.

namespace adpa::simd::detail {
const KernelTable kAvx2Table = kPortableTable;
}  // namespace adpa::simd::detail

#endif
