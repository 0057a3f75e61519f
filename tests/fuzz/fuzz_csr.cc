// Fuzz target: SparseMatrix::TryFromCsr on attacker-controlled CSR arrays.
//
// Invariants under test:
//  * TryFromCsr never aborts, crashes, or trips ASan/UBSan on any input —
//    every malformed structure comes back as a non-OK Status;
//  * on a matrix that validates, Multiply and MultiplyTransposed equal the
//    loops of tests/gemm_oracle.h bit for bit at every supported level, on
//    dense operands drawn from the rest of the input
//    (Input::TakeChainFloat); Transposed and At run as well.
//
// Two input modes keep both sides of the validator hot: mode 0 feeds raw
// untempered arrays (almost always rejected, exercising every error path),
// mode 1 derives structurally plausible arrays (sorted in-range columns,
// monotone row_ptr) so the accept path and the kernels get real coverage.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/sparse_matrix.h"
#include "src/tensor/matrix.h"
#include "src/tensor/simd.h"
#include "tests/fuzz/fuzz_util.h"
#include "tests/gemm_oracle.h"

using adpa::Matrix;
using adpa::Result;
using adpa::SparseMatrix;
using adpa::fuzz::BitwiseEqual;

namespace {

constexpr int64_t kMaxDim = 32;
constexpr size_t kMaxNnz = 256;
// Past two 16-float vectors, so every level's vector body and tail run.
constexpr int64_t kMaxFeatures = 40;

void CheckKernels(const SparseMatrix& m, adpa::fuzz::Input* in) {
  const int64_t f = in->TakeInRange(1, kMaxFeatures);
  const Matrix x = adpa::fuzz::TakeChainMatrix(in, m.cols(), f);
  const Matrix xt = adpa::fuzz::TakeChainMatrix(in, m.rows(), f);
  const Matrix want = adpa::oracle::Spmm(m, x);
  const Matrix want_t = adpa::oracle::SpmmTransposed(m, xt);
  for (const adpa::simd::Level level : adpa::simd::SupportedLevels()) {
    adpa::simd::SetLevel(level);
    if (!BitwiseEqual(m.Multiply(x), want)) {
      __builtin_trap();  // SpMM left its CSR-order FMA chain
    }
    if (!BitwiseEqual(m.MultiplyTransposed(xt), want_t)) {
      __builtin_trap();  // SpMMᵀ left the increasing-row scatter
    }
  }
  const SparseMatrix t = m.Transposed();
  double checksum = 0.0;
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols() && c < 4; ++c) {
      checksum += m.At(r, c);
    }
  }
  // Keep the results alive so the calls cannot be optimized out.
  if (t.rows() < 0 && checksum > 1e300) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  adpa::fuzz::Input in(data, size);
  const bool plausible = (in.TakeByte() & 1) != 0;
  const int64_t rows = in.TakeInRange(0, kMaxDim);
  const int64_t cols = in.TakeInRange(0, kMaxDim);
  const size_t nnz = static_cast<size_t>(in.TakeInRange(0, kMaxNnz));

  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  if (plausible && rows > 0 && cols > 0) {
    // Monotone row_ptr over nnz entries; strictly increasing columns per
    // row. Still not guaranteed valid (column overflow when a row wants
    // more entries than cols), which is exactly the boundary worth fuzzing.
    row_ptr.push_back(0);
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t take = in.TakeInRange(0, 4);
      row_ptr.push_back(row_ptr.back() + take);
    }
    for (int64_t r = 0; r < rows; ++r) {
      int32_t col = static_cast<int32_t>(in.TakeInRange(0, cols - 1));
      for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        col_idx.push_back(col);
        values.push_back(in.TakeFloat());
        col += static_cast<int32_t>(in.TakeInRange(1, 3));
      }
    }
  } else {
    const size_t ptr_len = static_cast<size_t>(in.TakeInRange(0, kMaxDim + 2));
    for (size_t i = 0; i < ptr_len; ++i) row_ptr.push_back(in.TakeInt64());
    for (size_t i = 0; i < nnz && !in.empty(); ++i) {
      col_idx.push_back(static_cast<int32_t>(in.TakeU32()));
      values.push_back(in.TakeFloat());
    }
  }

  Result<SparseMatrix> result = SparseMatrix::TryFromCsr(
      rows, cols, std::move(row_ptr), std::move(col_idx), std::move(values));
  if (result.ok()) CheckKernels(result.value(), &in);
  return 0;
}
