#pragma once
#include <algorithm>
#include <cstdint>

#include "src/core/thread_annotations.h"
#include "src/tensor/simd.h"

/// Internal: the per-level kernel tables and the kernels they are built
/// from. Every kernel but the forward GEMM is written once here as a
/// template over a level's traits struct; a level's own code is its traits
/// and its gemm_rows. Only simd.cc and the kernels_*.cc implementation files
/// include this; everything else goes through simd::Kernels().
///
/// The traits structs live in each kernel file's anonymous namespace, so
/// every instantiation has internal linkage: an -mavx512f copy of a template
/// can never be picked by the linker for another level's caller.

namespace adpa::simd::detail {

extern const KernelTable kPortableTable;
extern const KernelTable kAvx2Table;
extern const KernelTable kAvx512Table;

// Packing helpers shared by the dense GEMM kernels of every level
// (kernels_portable.cc). Packing only moves and widens values — float to
// double is exact — so it never changes a bit of any result.

/// Number of per-thread scratch buffers ScratchDoubles serves; a GEMM
/// entry uses slots 0..2.
inline constexpr int kScratchSlots = 3;

/// The calling thread's scratch buffer `slot`, sized to `count` doubles
/// with unspecified contents. Capacity persists across calls, so
/// steady-state GEMMs do not allocate.
ADPA_HOT double* ScratchDoubles(int slot, int64_t count);

/// dst[i] = src[i] for i in [0, count).
ADPA_HOT void WidenRows(const float* src, int64_t count, double* dst);

/// Packs the k x m operand whose element (p, j) is b[p*p_stride +
/// j*j_stride] into ceil(m/width) panels of `width` columns, each a
/// row-major k x width double block; columns past m are zero. (p_stride,
/// j_stride) = (m, 1) reads a row-major k x m matrix, (1, k) the transpose
/// of a row-major m x k one.
ADPA_HOT void PackColumnPanels(const float* b, int64_t p_stride,
                               int64_t j_stride, int64_t k, int64_t m,
                               int64_t width, double* panels);

/// Rows of `a` and `b` per A^T*B slab: a slab's packed operands stay
/// cache-resident while every register tile sweeps it.
inline constexpr int64_t kAtSlabRows = 64;

/// One register tile of A^T*B over a slab: for i in [0, rows) in order,
/// and for each of the tile's rows r with w = a_tile[i*a_stride + r] != 0,
/// acc[r*acc_stride + l] += w * b_slab[i*b_stride + l] for l in
/// [0, tile_j).
using AtTileFn = void (*)(const double* a_tile, int64_t a_stride,
                          const double* b_slab, int64_t b_stride,
                          int64_t rows, double* acc, int64_t acc_stride);

/// The A^T*B slab sweep every level shares (KernelTable::gemm_at_rows):
/// takes slabs of kAtSlabRows rows in increasing order, widens each slab's `b`
/// rows (columns zero-padded to a multiple of tile_j) and its `a` columns
/// [p_begin, p_end) (zero-padded to a multiple of tile_p), runs `tile`
/// on every (column tile, row tile) pair, and carries the double sums in a
/// per-call accumulator from slab to slab, so each sum over i stays one
/// increasing chain. Rounds to float once at the end.
ADPA_HOT void GemmAtRowsTiled(const float* a, const float* b, int64_t n,
                              int64_t k, int64_t m, int64_t p_begin,
                              int64_t p_end, float* out, int64_t tile_p,
                              int64_t tile_j, AtTileFn tile);

// Register-tiled A*Bᵀ and A^T*B for the vector levels. A level
// instantiates them with a traits struct V over its own intrinsics (the
// templates themselves hold none):
//   V::Reg                      a register of V::kWidth doubles
//   V::Mask                     what V::NonZero returns
//   V::kLanes                   lanes of the level's A*Bᵀ dot chain
//   V::kBtRows, V::kBtPanels    A*Bᵀ register tile: rows x panels of kWidth
//   V::kAtRows, V::kAtVecs      A^T*B register tile: rows x registers
//   V::Zero(), V::Load(const double*), V::Store(double*, Reg),
//   V::Broadcast(double), V::Fma(a, b, c) = a*b + c, V::Add(a, b)
//   V::StoreFloats(Reg, int64_t width, float*): the first
//       min(width, kWidth) lanes, rounded to float
//   V::NonZero(w): the lanes where w != 0 (NaN included)
//   V::FmaMasked(w, x, c, mask): c + w*x where mask is set, else exactly c

// Rows [0, R) of `a_rows` (widened, row stride k) against panels [0, C) of
// `panels` (PackColumnPanels, kWidth columns each): output columns
// [j0, j0 + C*kWidth) ∩ [0, m) of R rows of `out` (row stride m). One
// register per (row, panel) runs one lane's chain across kWidth columns,
// and the lanes are folded into the running totals in lane order, so every
// element sees exactly its own chain: lane l sums the terms p ≡ l
// (mod kLanes) of the full kLanes-groups, the totals start at 0.0, and the
// tail terms follow in p order.
template <class V, int R, int C>
inline void BtTile(const double* a_rows, const double* panels, int64_t k,
                   int64_t m, int64_t j0, float* out) {
  using Reg = typename V::Reg;
  Reg total[R][C];
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) total[r][c] = V::Zero();
  }
  const int64_t full = k / V::kLanes * V::kLanes;
  if (full > 0) {
    for (int lane = 0; lane < V::kLanes; ++lane) {
      Reg acc[R][C];
      for (int r = 0; r < R; ++r) {
        for (int c = 0; c < C; ++c) acc[r][c] = V::Zero();
      }
      for (int64_t p = lane; p < full; p += V::kLanes) {
        Reg w[C];
        for (int c = 0; c < C; ++c) {
          w[c] = V::Load(panels + (c * k + p) * V::kWidth);
        }
        for (int r = 0; r < R; ++r) {
          const Reg av = V::Broadcast(a_rows[r * k + p]);
          for (int c = 0; c < C; ++c) acc[r][c] = V::Fma(av, w[c], acc[r][c]);
        }
      }
      for (int r = 0; r < R; ++r) {
        for (int c = 0; c < C; ++c) total[r][c] = V::Add(total[r][c], acc[r][c]);
      }
    }
  }
  for (int64_t p = full; p < k; ++p) {
    for (int c = 0; c < C; ++c) {
      const Reg w = V::Load(panels + (c * k + p) * V::kWidth);
      for (int r = 0; r < R; ++r) {
        total[r][c] = V::Fma(V::Broadcast(a_rows[r * k + p]), w, total[r][c]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) {
      const int64_t j = j0 + c * V::kWidth;
      V::StoreFloats(total[r][c], m - j, out + r * m + j);
    }
  }
}

template <class V, int C>
void BtRowBlock(const double* a_rows, int64_t rows, const double* panels,
                int64_t k, int64_t m, int64_t j0, float* out) {
  int64_t r = 0;
  for (; r + V::kBtRows <= rows; r += V::kBtRows) {
    BtTile<V, V::kBtRows, C>(a_rows + r * k, panels, k, m, j0, out + r * m);
  }
  for (; r < rows; ++r) {
    BtTile<V, 1, C>(a_rows + r * k, panels, k, m, j0, out + r * m);
  }
}

/// Widened rows of `a` per A*Bᵀ row block: with a group of kBtPanels
/// panels they stay L1-resident while the block's register tiles sweep
/// them.
inline constexpr int64_t kBtRowBlock = 32;

/// KernelTable::gemm_bt_rows on V's lane-split dot chain: packs `b` once
/// into panels of kWidth output columns, then widens `a` a row block at a
/// time and sweeps the register tiles over it.
template <class V>
ADPA_HOT void GemmBtRowsTiled(const float* a, const float* b,
                              int64_t i_begin, int64_t i_end, int64_t k,
                              int64_t m, float* out) {
  constexpr int64_t kWidth = V::kWidth;
  const int64_t num_panels = (m + kWidth - 1) / kWidth;
  double* panels = ScratchDoubles(0, num_panels * k * kWidth);
  PackColumnPanels(b, 1, k, k, m, kWidth, panels);
  double* a_rows = ScratchDoubles(1, kBtRowBlock * k);
  for (int64_t i0 = i_begin; i0 < i_end; i0 += kBtRowBlock) {
    const int64_t rows = std::min(kBtRowBlock, i_end - i0);
    WidenRows(a + i0 * k, rows * k, a_rows);
    float* out_rows = out + i0 * m;
    int64_t q = 0;
    for (; q + V::kBtPanels <= num_panels; q += V::kBtPanels) {
      BtRowBlock<V, V::kBtPanels>(a_rows, rows, panels + q * k * kWidth, k,
                                  m, q * kWidth, out_rows);
    }
    for (; q < num_panels; ++q) {
      BtRowBlock<V, 1>(a_rows, rows, panels + q * k * kWidth, k, m,
                       q * kWidth, out_rows);
    }
  }
}

/// An AtTileFn over V: kAtRows x kAtVecs registers of sums held across the
/// slab. The zero skip is V::FmaMasked, which leaves a sum exactly as it
/// was where the weight is zero.
template <class V>
void AtTileVec(const double* a_tile, int64_t a_stride, const double* b_slab,
               int64_t b_stride, int64_t rows, double* acc,
               int64_t acc_stride) {
  using Reg = typename V::Reg;
  Reg c[V::kAtRows][V::kAtVecs];
  for (int r = 0; r < V::kAtRows; ++r) {
    for (int v = 0; v < V::kAtVecs; ++v) {
      c[r][v] = V::Load(acc + r * acc_stride + v * V::kWidth);
    }
  }
  for (int64_t i = 0; i < rows; ++i) {
    const double* b_row = b_slab + i * b_stride;
    Reg x[V::kAtVecs];
    for (int v = 0; v < V::kAtVecs; ++v) x[v] = V::Load(b_row + v * V::kWidth);
    for (int r = 0; r < V::kAtRows; ++r) {
      const Reg w = V::Broadcast(a_tile[i * a_stride + r]);
      const typename V::Mask nonzero = V::NonZero(w);
      for (int v = 0; v < V::kAtVecs; ++v) {
        c[r][v] = V::FmaMasked(w, x[v], c[r][v], nonzero);
      }
    }
  }
  for (int r = 0; r < V::kAtRows; ++r) {
    for (int v = 0; v < V::kAtVecs; ++v) {
      V::Store(acc + r * acc_stride + v * V::kWidth, c[r][v]);
    }
  }
}

/// KernelTable::gemm_at_rows over V's register tile.
template <class V>
ADPA_HOT void GemmAtRowsVec(const float* a, const float* b, int64_t n,
                            int64_t k, int64_t m, int64_t p_begin,
                            int64_t p_end, float* out) {
  GemmAtRowsTiled(a, b, n, k, m, p_begin, p_end, out, V::kAtRows,
                  V::kAtVecs * V::kWidth, AtTileVec<V>);
}

// Float32 kernels. A level adds float lanes to its traits:
//   V::F                        a register of V::kFloats floats
//   V::LoadF(const float*), V::StoreF(float*, F), V::BroadcastF(float),
//   V::AddF(a, b), V::SubF(a, b), V::MulF(a, b)
//   V::FmaF(a, b, c) = a*b + c, rounded once
// Each output element takes one operation per input term, rounded once, in
// the same order at every level: a vector lane and the scalar tail do the
// same arithmetic. So these kernels give the same bits at every level and
// in every build (tests/gemm_oracle.h states each as a per-element loop).

/// dst[c] = fma(w, src[c], dst[c]) for c in [0, n). The tail calls
/// __builtin_fmaf rather than writing `dst[c] += w * src[c]`, which rounds
/// twice wherever the compiler does not contract it.
template <class V>
inline void AxpyRowVec(float* dst, const float* src, float w, int64_t n) {
  const typename V::F wv = V::BroadcastF(w);
  int64_t c = 0;
  for (; c + V::kFloats <= n; c += V::kFloats) {
    V::StoreF(dst + c, V::FmaF(wv, V::LoadF(src + c), V::LoadF(dst + c)));
  }
  for (; c < n; ++c) dst[c] = __builtin_fmaf(w, src[c], dst[c]);
}

/// KernelTable::axpy: an out-of-line entry around AxpyRowVec, which the
/// SpMM body inlines. Putting the inline row kernel in the table instead
/// changes the entry's register allocation.
template <class V>
ADPA_HOT void AxpyVec(float* dst, const float* src, float factor, int64_t n) {
  AxpyRowVec<V>(dst, src, factor, n);
}

template <class V>
ADPA_HOT void AddVec(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + V::kFloats <= n; i += V::kFloats) {
    V::StoreF(dst + i, V::AddF(V::LoadF(dst + i), V::LoadF(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

template <class V>
ADPA_HOT void SubVec(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + V::kFloats <= n; i += V::kFloats) {
    V::StoreF(dst + i, V::SubF(V::LoadF(dst + i), V::LoadF(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

template <class V>
ADPA_HOT void MulVec(float* dst, const float* src, int64_t n) {
  int64_t i = 0;
  for (; i + V::kFloats <= n; i += V::kFloats) {
    V::StoreF(dst + i, V::MulF(V::LoadF(dst + i), V::LoadF(src + i)));
  }
  for (; i < n; ++i) dst[i] *= src[i];
}

template <class V>
ADPA_HOT void ScaleVec(float* dst, float factor, int64_t n) {
  const typename V::F fv = V::BroadcastF(factor);
  int64_t i = 0;
  for (; i + V::kFloats <= n; i += V::kFloats) {
    V::StoreF(dst + i, V::MulF(V::LoadF(dst + i), fv));
  }
  for (; i < n; ++i) dst[i] *= factor;
}

template <class V>
ADPA_HOT void ScaleToVec(float* dst, const float* src, float factor,
                         int64_t n) {
  const typename V::F fv = V::BroadcastF(factor);
  int64_t i = 0;
  for (; i + V::kFloats <= n; i += V::kFloats) {
    V::StoreF(dst + i, V::MulF(V::LoadF(src + i), fv));
  }
  for (; i < n; ++i) dst[i] = factor * src[i];
}

/// Feature-dimension block of the CSR SpMM kernels: the output row slice and
/// the gathered dense-row slices stay L1-resident while a row reuses its
/// neighbours. Blocking changes only the traversal, never an element's
/// chain.
inline constexpr int64_t kSpmmColBlock = 1024;

/// KernelTable::spmm_rows: each output element starts at +0.0f and takes one
/// AxpyRowVec term per nonzero of its row, in CSR order.
template <class V>
ADPA_HOT void SpmmRowsVec(const int64_t* row_ptr, const int32_t* col_idx,
                          const float* values, const float* dense,
                          int64_t cols, int64_t row_begin, int64_t row_end,
                          float* out) {
  for (int64_t c0 = 0; c0 < cols; c0 += kSpmmColBlock) {
    const int64_t width = std::min<int64_t>(kSpmmColBlock, cols - c0);
    for (int64_t r = row_begin; r < row_end; ++r) {
      float* out_row = out + r * cols + c0;
      std::fill(out_row, out_row + width, 0.0f);
      for (int64_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
        AxpyRowVec<V>(out_row, dense + int64_t{col_idx[p]} * cols + c0,
                      values[p], width);
      }
    }
  }
}

/// A vector level's table: its own forward GEMM, the backward GEMM
/// templates above over its register tiles, and the float32 kernels.
template <class V>
constexpr KernelTable VecTable(decltype(KernelTable::gemm_rows) gemm_rows) {
  return {gemm_rows,  GemmBtRowsTiled<V>, GemmAtRowsVec<V>, SpmmRowsVec<V>,
          AddVec<V>,  SubVec<V>,          MulVec<V>,        ScaleVec<V>,
          AxpyVec<V>, ScaleToVec<V>};
}

}  // namespace adpa::simd::detail
