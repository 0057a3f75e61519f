// Test oracle for the kernels of src/tensor: per-element loops, one output
// element at a time.
//   * The backward GEMM layouts: the loops MatMulTransposeA and
//     MatMulTransposeB ran before their register-tiled kernels.
//   * The float32 kernels (SpMM, SpMMᵀ, the elementwise ops):
//     the loops the portable level ran before every level shared one
//     template, with each multiply-add written as one std::fma, so the
//     oracle rounds once per term in every build.
// The kernels must keep each element's chain, so the tests and the
// fuzz_gemm and fuzz_csr targets compare them with these loops bit for bit.
// The elementwise oracles run one op per pass over the matrix: a fused
// per-element chain would let the compiler contract a multiply into the
// next op's add.

#pragma once
#include <cmath>
#include <cstdint>

#include "src/core/logging.h"
#include "src/graph/sparse_matrix.h"
#include "src/tensor/matrix.h"
#include "src/tensor/simd.h"

namespace adpa::oracle {

/// Lanes of a level's A*Bᵀ dot chain (simd.h, KernelTable::gemm_bt_rows).
inline int DotLanes(simd::Level level) {
  switch (level) {
    case simd::Level::kPortable:
      return 1;
    case simd::Level::kAvx2:
      return 8;
    case simd::Level::kAvx512:
      return 16;
  }
  return 1;
}

/// Lane-split double dot product of two float spans of length k: lane l
/// sums the terms p ≡ l (mod lanes) of the first floor(k/lanes)·lanes in
/// increasing p, the result is 0.0 + lane 0 + … + lane (lanes-1), then the
/// remaining terms in p order. lanes = 1 is the plain sequential sum.
inline double Dot(const float* a, const float* b, int64_t k, int lanes) {
  ADPA_CHECK(lanes >= 1 && lanes <= 16);
  double lane_sums[16] = {};
  const int64_t full = k / lanes * lanes;
  for (int64_t p = 0; p < full; ++p) {
    lane_sums[p % lanes] += static_cast<double>(a[p]) * b[p];
  }
  double total = 0.0;
  for (int l = 0; l < lanes; ++l) total += lane_sums[l];
  for (int64_t p = full; p < k; ++p) {
    total += static_cast<double>(a[p]) * b[p];
  }
  return total;
}

/// a * bᵀ, one Dot per output element.
inline Matrix MatMulTransposeB(const Matrix& a, const Matrix& b, int lanes) {
  ADPA_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      out.At(i, j) = static_cast<float>(Dot(a.Row(i), b.Row(j), a.cols(),
                                            lanes));
    }
  }
  return out;
}

/// aᵀ * b: element (p, j) sums a[i][p] * b[i][j] in double over rows i in
/// increasing order, skipping a[i][p] == 0, and rounds once.
inline Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  ADPA_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());
  for (int64_t p = 0; p < a.cols(); ++p) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (int64_t i = 0; i < a.rows(); ++i) {
        const float a_ip = a.At(i, p);
        if (a_ip == 0.0f) continue;
        sum += static_cast<double>(a_ip) * b.At(i, j);
      }
      out.At(p, j) = static_cast<float>(sum);
    }
  }
  return out;
}

/// a * x: each output element starts at +0.0f and takes one fma per
/// nonzero of its row, in CSR order.
inline Matrix Spmm(const SparseMatrix& a, const Matrix& x) {
  ADPA_CHECK_EQ(a.cols(), x.rows());
  Matrix out(a.rows(), x.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t p = a.row_ptr()[r]; p < a.row_ptr()[r + 1]; ++p) {
      const float w = a.values()[p];
      const int64_t col = a.col_idx()[p];
      for (int64_t c = 0; c < x.cols(); ++c) {
        out.At(r, c) = std::fma(w, x.At(col, c), out.At(r, c));
      }
    }
  }
  return out;
}

/// Label propagation's hop beta * (a * x) + alpha * residual: Spmm, then
/// one multiply by beta, then one fma of the residual.
inline Matrix SpmmAxpby(const SparseMatrix& a, const Matrix& x,
                        const Matrix& residual, float alpha, float beta) {
  Matrix out = Spmm(a, x);
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] *= beta;
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::fma(alpha, residual.data()[i], out.data()[i]);
  }
  return out;
}

/// aᵀ * x as the scatter: rows r of `a` in increasing order, one fma per
/// term into the output row of each nonzero's column.
inline Matrix SpmmTransposed(const SparseMatrix& a, const Matrix& x) {
  ADPA_CHECK_EQ(a.rows(), x.rows());
  Matrix out(a.cols(), x.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t p = a.row_ptr()[r]; p < a.row_ptr()[r + 1]; ++p) {
      const float w = a.values()[p];
      const int64_t col = a.col_idx()[p];
      for (int64_t c = 0; c < x.cols(); ++c) {
        out.At(col, c) = std::fma(w, x.At(r, c), out.At(col, c));
      }
    }
  }
  return out;
}

// The elementwise kernels, one float32 operation per element.
inline void Add(Matrix* dst, const Matrix& src) {
  for (int64_t i = 0; i < dst->size(); ++i) dst->data()[i] += src.data()[i];
}
inline void Sub(Matrix* dst, const Matrix& src) {
  for (int64_t i = 0; i < dst->size(); ++i) dst->data()[i] -= src.data()[i];
}
inline void Mul(Matrix* dst, const Matrix& src) {
  for (int64_t i = 0; i < dst->size(); ++i) dst->data()[i] *= src.data()[i];
}
inline void Scale(Matrix* dst, float factor) {
  for (int64_t i = 0; i < dst->size(); ++i) dst->data()[i] *= factor;
}
/// dst += factor * src, one fma per element (AddScaledInPlace).
inline void Axpy(Matrix* dst, const Matrix& src, float factor) {
  for (int64_t i = 0; i < dst->size(); ++i) {
    dst->data()[i] = std::fma(factor, src.data()[i], dst->data()[i]);
  }
}
/// Row r of a times scales(r, 0) (ScaleRows).
inline Matrix ScaleRows(const Matrix& a, const Matrix& scales) {
  Matrix out(a.rows(), a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      out.At(r, c) = scales.At(r, 0) * a.At(r, c);
    }
  }
  return out;
}

}  // namespace adpa::oracle
