// Portable (plain C++) kernel level: the only level used when
// ADPA_SIMD_LEVEL=portable, on CPUs without AVX2, and off x86. Its own code
// is the GEMM reference chains (the historical matrix.cc loops, bit for
// bit) and a one-lane traits struct for the float32 templates every level
// shares (simd_kernels.h); the float32 kernels' reference loops live in
// tests/gemm_oracle.h. This file also holds the packing helpers and the
// A^T*B slab sweep that every level's dense GEMMs share.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/tensor/simd_kernels.h"

namespace adpa::simd::detail {
namespace {

// Register tile of the blocked GEMM micro-kernel: kGemmMr output rows by
// kGemmNr output columns of double accumulators (4x32 doubles = 1 KiB,
// within the AVX register budget after spilling the hot lanes).
constexpr int64_t kGemmMr = 4;
constexpr int64_t kGemmNr = 32;

// Register tile of the A^T*B kernel: kAtP output rows (columns p of a) by
// kAtJ output columns.
constexpr int64_t kAtP = 4;
constexpr int64_t kAtJ = 32;

// Rows [i_begin, i_end) of a times the k x m operand whose element (p, j)
// is b[p*p_stride + j*j_stride]. The operand is packed once into kGemmNr-
// column double slabs; each kGemmMr-row panel of `a` is widened once and
// then swept over every slab. Every output element is the sequential-k
// double dot product of its row and column, independent of the
// [i_begin, i_end) partition — so any chunking of rows over threads
// produces bitwise-identical results.
void GemmRowsStrided(const float* a, const float* b, int64_t p_stride,
                     int64_t j_stride, int64_t i_begin, int64_t i_end,
                     int64_t k, int64_t m, float* out) {
  const int64_t num_slabs = (m + kGemmNr - 1) / kGemmNr;
  double* slabs = ScratchDoubles(0, num_slabs * k * kGemmNr);
  PackColumnPanels(b, p_stride, j_stride, k, m, kGemmNr, slabs);
  double* panel = ScratchDoubles(1, kGemmMr * k);
  int64_t i0 = i_begin;
  for (; i0 + kGemmMr <= i_end; i0 += kGemmMr) {
    WidenRows(a + i0 * k, kGemmMr * k, panel);
    const double* a0 = panel + 0 * k;
    const double* a1 = panel + 1 * k;
    const double* a2 = panel + 2 * k;
    const double* a3 = panel + 3 * k;
    for (int64_t s = 0; s < num_slabs; ++s) {
      const int64_t j0 = s * kGemmNr;
      const int64_t width = std::min<int64_t>(kGemmNr, m - j0);
      const double* slab = slabs + s * k * kGemmNr;
      double c[kGemmMr][kGemmNr] = {};
      for (int64_t p = 0; p < k; ++p) {
        const double* b_row = slab + p * kGemmNr;
        const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        for (int64_t l = 0; l < kGemmNr; ++l) {
          const double bv = b_row[l];
          c[0][l] += av0 * bv;
          c[1][l] += av1 * bv;
          c[2][l] += av2 * bv;
          c[3][l] += av3 * bv;
        }
      }
      for (int64_t r = 0; r < kGemmMr; ++r) {
        float* out_row = out + (i0 + r) * m + j0;
        for (int64_t l = 0; l < width; ++l) {
          out_row[l] = static_cast<float>(c[r][l]);
        }
      }
    }
  }
  // Row tail (< kGemmMr rows): single-row micro-kernel. Per element this
  // is the same sequential-k chain as the 4-row kernel, so a row lands on
  // the same bits whichever path computes it.
  for (; i0 < i_end; ++i0) {
    WidenRows(a + i0 * k, k, panel);
    for (int64_t s = 0; s < num_slabs; ++s) {
      const int64_t j0 = s * kGemmNr;
      const int64_t width = std::min<int64_t>(kGemmNr, m - j0);
      const double* slab = slabs + s * k * kGemmNr;
      double c1[kGemmNr] = {};
      for (int64_t p = 0; p < k; ++p) {
        const double av = panel[p];
        const double* b_row = slab + p * kGemmNr;
        for (int64_t l = 0; l < kGemmNr; ++l) c1[l] += av * b_row[l];
      }
      float* out_row = out + i0 * m + j0;
      for (int64_t l = 0; l < width; ++l) {
        out_row[l] = static_cast<float>(c1[l]);
      }
    }
  }
}

// One kAtP x kAtJ tile of the A^T*B sum over a slab of `rows` rows: the
// zero skip is a branch, exactly the historical loop's.
void AtTilePortable(const double* a_tile, int64_t a_stride,
                    const double* b_slab, int64_t b_stride, int64_t rows,
                    double* acc, int64_t acc_stride) {
  double c[kAtP][kAtJ];
  for (int64_t r = 0; r < kAtP; ++r) {
    for (int64_t l = 0; l < kAtJ; ++l) c[r][l] = acc[r * acc_stride + l];
  }
  for (int64_t i = 0; i < rows; ++i) {
    const double* b_row = b_slab + i * b_stride;
    for (int64_t r = 0; r < kAtP; ++r) {
      const double w = a_tile[i * a_stride + r];
      if (w == 0.0) continue;
      for (int64_t l = 0; l < kAtJ; ++l) c[r][l] += w * b_row[l];
    }
  }
  for (int64_t r = 0; r < kAtP; ++r) {
    for (int64_t l = 0; l < kAtJ; ++l) acc[r * acc_stride + l] = c[r][l];
  }
}

ADPA_HOT void GemmRowsPortable(const float* a, const float* b, int64_t i_begin,
                               int64_t i_end, int64_t k, int64_t m,
                               float* out) {
  GemmRowsStrided(a, b, m, 1, i_begin, i_end, k, m, out);
}

// The portable dot chain is the plain increasing-p one, the GEMM's, so
// a*bᵀ is the GEMM over bᵀ read in place of b.
ADPA_HOT void GemmBtRowsPortable(const float* a, const float* b,
                                 int64_t i_begin, int64_t i_end, int64_t k,
                                 int64_t m, float* out) {
  GemmRowsStrided(a, b, 1, k, i_begin, i_end, k, m, out);
}

ADPA_HOT void GemmAtRowsPortable(const float* a, const float* b, int64_t n,
                                 int64_t k, int64_t m, int64_t p_begin,
                                 int64_t p_end, float* out) {
  GemmAtRowsTiled(a, b, n, k, m, p_begin, p_end, out, kAtP, kAtJ,
                  AtTilePortable);
}

// One float lane for the float32 templates. FmaF is __builtin_fmaf, one
// rounding in every build: a single FMA instruction where the target has
// one, a correctly rounded libm call where it does not (a build without
// -mfma).
struct Scalar {
  using F = float;
  static constexpr int kFloats = 1;
  static F LoadF(const float* src) { return *src; }
  static void StoreF(float* dst, F v) { *dst = v; }
  static F BroadcastF(float x) { return x; }
  static F AddF(F a, F b) { return a + b; }
  static F SubF(F a, F b) { return a - b; }
  static F MulF(F a, F b) { return a * b; }
  static F FmaF(F a, F b, F c) { return __builtin_fmaf(a, b, c); }
};

}  // namespace

double* ScratchDoubles(int slot, int64_t count) {
  thread_local std::vector<double> buffers[kScratchSlots];
  std::vector<double>& buffer = buffers[slot];
  buffer.resize(static_cast<size_t>(count));  // analyze:allow(alloc): thread_local capacity reuse
  return buffer.data();
}

void WidenRows(const float* src, int64_t count, double* dst) {
  for (int64_t i = 0; i < count; ++i) dst[i] = src[i];
}

void PackColumnPanels(const float* b, int64_t p_stride, int64_t j_stride,
                      int64_t k, int64_t m, int64_t width, double* panels) {
  const int64_t num_panels = (m + width - 1) / width;
  for (int64_t q = 0; q < num_panels; ++q) {
    double* panel = panels + q * k * width;
    for (int64_t l = 0; l < width; ++l) {
      const int64_t j = q * width + l;
      if (j < m) {
        const float* src = b + j * j_stride;
        for (int64_t p = 0; p < k; ++p) panel[p * width + l] = src[p * p_stride];
      } else {
        for (int64_t p = 0; p < k; ++p) panel[p * width + l] = 0.0;
      }
    }
  }
}

void GemmAtRowsTiled(const float* a, const float* b, int64_t n, int64_t k,
                     int64_t m, int64_t p_begin, int64_t p_end, float* out,
                     int64_t tile_p, int64_t tile_j, AtTileFn tile) {
  const int64_t cols = p_end - p_begin;
  const int64_t tiles = (cols + tile_p - 1) / tile_p;
  const int64_t acc_rows = tiles * tile_p;
  const int64_t m_pad = (m + tile_j - 1) / tile_j * tile_j;
  double* acc = ScratchDoubles(0, acc_rows * m_pad);
  double* b_slab = ScratchDoubles(1, kAtSlabRows * m_pad);
  double* a_slab = ScratchDoubles(2, kAtSlabRows * acc_rows);
  std::fill(acc, acc + acc_rows * m_pad, 0.0);
  for (int64_t i0 = 0; i0 < n; i0 += kAtSlabRows) {
    const int64_t rows = std::min(kAtSlabRows, n - i0);
    // Padding reads as 0: padded b columns add nothing, and padded a
    // columns are dropped by the zero skip.
    for (int64_t i = 0; i < rows; ++i) {
      double* b_dst = b_slab + i * m_pad;
      WidenRows(b + (i0 + i) * m, m, b_dst);
      std::fill(b_dst + m, b_dst + m_pad, 0.0);
      double* a_dst = a_slab + i * acc_rows;
      WidenRows(a + (i0 + i) * k + p_begin, cols, a_dst);
      std::fill(a_dst + cols, a_dst + acc_rows, 0.0);
    }
    for (int64_t j0 = 0; j0 < m_pad; j0 += tile_j) {
      for (int64_t t = 0; t < tiles; ++t) {
        tile(a_slab + t * tile_p, acc_rows, b_slab + j0, m_pad, rows,
             acc + t * tile_p * m_pad + j0, m_pad);
      }
    }
  }
  for (int64_t p = p_begin; p < p_end; ++p) {
    const double* acc_row = acc + (p - p_begin) * m_pad;
    float* out_row = out + p * m;
    for (int64_t j = 0; j < m; ++j) out_row[j] = static_cast<float>(acc_row[j]);
  }
}

const KernelTable kPortableTable = {
    GemmRowsPortable, GemmBtRowsPortable, GemmAtRowsPortable,
    SpmmRowsVec<Scalar>, AddVec<Scalar>, SubVec<Scalar>, MulVec<Scalar>,
    ScaleVec<Scalar>, AxpyVec<Scalar>, ScaleToVec<Scalar>,
};

}  // namespace adpa::simd::detail
