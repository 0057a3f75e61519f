#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/tensor/simd.h"

namespace adpa {

Matrix::Matrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {
  ADPA_CHECK_GE(rows, 0);
  ADPA_CHECK_GE(cols, 0);
}

Matrix::Matrix(int64_t rows, int64_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  ADPA_CHECK_GE(rows, 0);
  ADPA_CHECK_GE(cols, 0);
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix out(static_cast<int64_t>(rows.size()),
             static_cast<int64_t>(rows[0].size()));
  for (size_t r = 0; r < rows.size(); ++r) {
    ADPA_CHECK_EQ(rows[r].size(), rows[0].size());
    std::copy(rows[r].begin(), rows[r].end(), out.Row(r));
  }
  return out;
}

Matrix Matrix::RandomNormal(int64_t rows, int64_t cols, Rng* rng, float mean,
                            float stddev) {
  Matrix out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return out;
}

Matrix Matrix::RandomUniform(int64_t rows, int64_t cols, Rng* rng, float lo,
                             float hi) {
  Matrix out(rows, cols);
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return out;
}

Matrix Matrix::Identity(int64_t n) {
  Matrix out(n, n);
  for (int64_t i = 0; i < n; ++i) out.At(i, i) = 1.0f;
  return out;
}

void Matrix::CheckFinite(const char* context) const {
  const float* values = data_.data();
  for (int64_t i = 0; i < size(); ++i) {
    ADPA_CHECK(std::isfinite(values[i]))
        << context << ": non-finite value " << values[i] << " at ("
        << i / cols_ << ", " << i % cols_ << ") of " << rows_ << "x" << cols_;
  }
}

void Matrix::Fill(float value) {
  float* values = data_.data();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    std::fill(values + begin, values + end, value);
  });
}

void Matrix::Resize(int64_t rows, int64_t cols) {
  ADPA_CHECK_GE(rows, 0);
  ADPA_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  // assign() reuses existing capacity; growth beyond the high-water mark is
  // the only case that allocates.
  data_.assign(static_cast<size_t>(rows * cols), 0.0f);  // analyze:allow(alloc): capacity reuse
}

void Matrix::AddInPlace(const Matrix& other) {
  ADPA_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.add(dst + begin, src + begin, end - begin);
  });
}

void Matrix::SubInPlace(const Matrix& other) {
  ADPA_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.sub(dst + begin, src + begin, end - begin);
  });
}

void Matrix::MulInPlace(const Matrix& other) {
  ADPA_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.mul(dst + begin, src + begin, end - begin);
  });
}

void Matrix::ScaleInPlace(float factor) {
  float* values = data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.scale(values + begin, factor, end - begin);
  });
}

void Matrix::AddScaledInPlace(const Matrix& other, float factor) {
  ADPA_CHECK(SameShape(other));
  float* dst = data_.data();
  const float* src = other.data_.data();
  const simd::KernelTable& kernels = simd::Kernels();
  ParallelFor(0, size(), kElementwiseGrain, [&](int64_t begin, int64_t end) {
    kernels.axpy(dst + begin, src + begin, factor, end - begin);
  });
}

float Matrix::SumAll() const {
  double total = 0.0;
  for (float value : data_) total += value;
  return static_cast<float>(total);
}

float Matrix::FrobeniusNorm() const {
  double total = 0.0;
  for (float value : data_) total += static_cast<double>(value) * value;
  return static_cast<float>(std::sqrt(total));
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  // Partition over output rows; each is written by exactly one thread.
  ParallelFor(0, cols_, 16, [&](int64_t begin, int64_t end) {
    for (int64_t c = begin; c < end; ++c) {
      float* out_row = out.Row(c);
      for (int64_t r = 0; r < rows_; ++r) out_row[r] = At(r, c);
    }
  });
  return out;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream out;
  out << "Matrix(" << rows_ << "x" << cols_ << ")\n";
  const int64_t show_rows = std::min<int64_t>(rows_, max_rows);
  const int64_t show_cols = std::min<int64_t>(cols_, max_cols);
  for (int64_t r = 0; r < show_rows; ++r) {
    out << " [";
    for (int64_t c = 0; c < show_cols; ++c) {
      if (c > 0) out << ", ";
      out << At(r, c);
    }
    if (show_cols < cols_) out << ", ...";
    out << "]\n";
  }
  if (show_rows < rows_) out << " ...\n";
  return out.str();
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  ADPA_CHECK_EQ(a.cols(), b.rows());
  ADPA_CHECK(out != &a && out != &b);
  out->Resize(a.rows(), b.cols());
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  if (n == 0 || k == 0 || m == 0) return;
  const simd::KernelTable& kernels = simd::Kernels();
  // Partition over output rows. Every level's gemm_rows computes each
  // output element as the same chain whichever micro-kernel path (full
  // tile or row tail) covers its row, so any row partition — and any
  // thread count — produces bitwise-identical results. The grain keeps
  // ~kMinCostPerChunk FLOPs per chunk (2*k*m per row).
  ParallelFor(0, n, GrainForCost(2 * k * m),
              [&](int64_t row_begin, int64_t row_end) {
                kernels.gemm_rows(a.data(), b.data(), row_begin, row_end, k,
                                  m, out->data());
              });
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, &out);
  return out;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  ADPA_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  if (n == 0 || k == 0 || m == 0) return out;
  const simd::KernelTable& kernels = simd::Kernels();
  // Partition over fixed-size blocks of output rows (columns p of `a`).
  // Each output element sums over all n inputs in increasing order
  // whichever chunk computes it, so results do not depend on the thread
  // count.
  constexpr int64_t kBlock = 32;
  const int64_t num_blocks = (k + kBlock - 1) / kBlock;
  ParallelFor(0, num_blocks, GrainForCost(2 * n * kBlock * m),
              [&](int64_t block_begin, int64_t block_end) {
                kernels.gemm_at_rows(a.data(), b.data(), n, k, m,
                                     block_begin * kBlock,
                                     std::min(block_end * kBlock, k),
                                     out.data());
              });
  return out;
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  ADPA_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  const int64_t n = a.rows(), k = a.cols(), m = b.rows();
  if (n == 0 || k == 0 || m == 0) return out;
  const simd::KernelTable& kernels = simd::Kernels();
  // Partition over output rows; each element's chain is fixed by k alone.
  ParallelFor(0, n, GrainForCost(2 * k * m),
              [&](int64_t row_begin, int64_t row_end) {
                kernels.gemm_bt_rows(a.data(), b.data(), row_begin, row_end,
                                     k, m, out.data());
              });
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.AddInPlace(b);
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.SubInPlace(b);
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.MulInPlace(b);
  return out;
}

Matrix Scale(const Matrix& a, float factor) {
  Matrix out = a;
  out.ScaleInPlace(factor);
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  return ConcatCols(std::vector<Matrix>{a, b});
}

Matrix ConcatCols(const std::vector<Matrix>& parts) {
  std::vector<const Matrix*> views;
  views.reserve(parts.size());
  for (const Matrix& part : parts) views.push_back(&part);
  Matrix out;
  ConcatColsInto(views, &out);
  return out;
}

void ConcatColsInto(const std::vector<const Matrix*>& parts, Matrix* out) {
  ADPA_CHECK(!parts.empty());
  const int64_t rows = parts[0]->rows();
  int64_t total_cols = 0;
  for (const Matrix* part : parts) {
    ADPA_CHECK(part != out);
    ADPA_CHECK_EQ(part->rows(), rows);
    total_cols += part->cols();
  }
  out->Resize(rows, total_cols);
  for (int64_t r = 0; r < rows; ++r) {
    float* dst = out->Row(r);
    for (const Matrix* part : parts) {
      dst = std::copy(part->Row(r), part->Row(r) + part->cols(), dst);
    }
  }
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  Matrix out = a;
  AddRowBroadcastInPlace(&out, row);
  return out;
}

void AddRowBroadcastInPlace(Matrix* a, const Matrix& row) {
  ADPA_CHECK_EQ(row.rows(), 1);
  ADPA_CHECK_EQ(row.cols(), a->cols());
  const simd::KernelTable& kernels = simd::Kernels();
  for (int64_t r = 0; r < a->rows(); ++r) {
    kernels.add(a->Row(r), row.data(), a->cols());
  }
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out;
  SoftmaxRowsInto(a, &out);
  return out;
}

void SoftmaxRowsInto(const Matrix& a, Matrix* out) {
  ADPA_CHECK(out != &a);
  out->Resize(a.rows(), a.cols());
  // exp dominates: ~16 scalar-op-equivalents per element.
  ParallelFor(0, a.rows(), GrainForCost(16 * a.cols()),
              [&](int64_t row_begin, int64_t row_end) {
    for (int64_t r = row_begin; r < row_end; ++r) {
      const float* in_row = a.Row(r);
      float* out_row = out->Row(r);
      float max_value = in_row[0];
      for (int64_t c = 1; c < a.cols(); ++c)
        max_value = std::max(max_value, in_row[c]);
      double total = 0.0;
      for (int64_t c = 0; c < a.cols(); ++c) {
        out_row[c] = std::exp(in_row[c] - max_value);
        total += out_row[c];
      }
      const float inv = static_cast<float>(1.0 / total);
      for (int64_t c = 0; c < a.cols(); ++c) out_row[c] *= inv;
    }
  });
}

Matrix ScaleRows(const Matrix& a, const Matrix& scales) {
  Matrix out;
  ScaleRowsInto(a, scales, &out);
  return out;
}

void ScaleRowsInto(const Matrix& a, const Matrix& scales, Matrix* out) {
  ADPA_CHECK_EQ(scales.cols(), 1);
  ADPA_CHECK_EQ(scales.rows(), a.rows());
  ADPA_CHECK(out != &a && out != &scales);
  out->Resize(a.rows(), a.cols());
  const simd::KernelTable& kernels = simd::Kernels();
  for (int64_t r = 0; r < a.rows(); ++r) {
    kernels.scale_to(out->Row(r), a.Row(r), scales.At(r, 0), a.cols());
  }
}

Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end) {
  Matrix out;
  SliceColsInto(a, begin, end, &out);
  return out;
}

void SliceColsInto(const Matrix& a, int64_t begin, int64_t end, Matrix* out) {
  ADPA_CHECK_GE(begin, 0);
  ADPA_CHECK_LE(begin, end);
  ADPA_CHECK_LE(end, a.cols());
  ADPA_CHECK(out != &a);
  out->Resize(a.rows(), end - begin);
  for (int64_t r = 0; r < a.rows(); ++r) {
    std::copy(a.Row(r) + begin, a.Row(r) + end, out->Row(r));
  }
}

void GatherRowsInto(const Matrix& a, const std::vector<int64_t>& rows,
                    Matrix* out) {
  ADPA_CHECK(out != &a);
  out->Resize(static_cast<int64_t>(rows.size()), a.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    ADPA_CHECK_GE(r, 0);
    ADPA_CHECK_LT(r, a.rows());
    std::copy(a.Row(r), a.Row(r) + a.cols(),
              out->Row(static_cast<int64_t>(i)));
  }
}

bool AllClose(const Matrix& a, const Matrix& b, float tolerance) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > tolerance) return false;
  }
  return true;
}

}  // namespace adpa
