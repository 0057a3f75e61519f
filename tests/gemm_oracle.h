// Test oracle for the backward GEMM layouts of src/tensor: the per-element
// loops MatMulTransposeA and MatMulTransposeB ran before their register-
// tiled kernels, one output element at a time. The kernels must keep each
// element's accumulation chain, so the tests and the fuzz_gemm target
// compare them with these loops bit for bit.

#pragma once
#include <cstdint>

#include "src/core/logging.h"
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

}  // namespace adpa::oracle
