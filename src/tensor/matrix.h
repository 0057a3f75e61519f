#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/logging.h"
#include "src/core/parallel.h"

namespace adpa {

class Rng;

/// Minimum elements per ParallelFor chunk for O(1)-per-element loops:
/// enough elements that a chunk amortizes the pool hand-off
/// (kMinCostPerChunk scalar ops). Sub-grain spans run inline — on the serve
/// path every per-batch elementwise op is far below this, which is exactly
/// the point (fanning out sub-millisecond ops cost more than it bought).
inline constexpr int64_t kElementwiseGrain = GrainForCost(1);

/// Dense row-major float32 matrix. This is the single dense container used
/// by the autograd engine, the models, and the data generators. Kernels are
/// BLAS-free but cache-blocked and multithreaded via `ParallelFor`
/// (src/core/parallel.h): work is always partitioned over *output*
/// elements, so every kernel produces bitwise-identical results for any
/// thread count.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(int64_t rows, int64_t cols);

  /// Matrix filled with `fill`.
  Matrix(int64_t rows, int64_t cols, float fill);

  /// Builds from nested initializer data; all rows must have equal length.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// rows x cols with i.i.d. N(mean, stddev) entries.
  static Matrix RandomNormal(int64_t rows, int64_t cols, Rng* rng,
                             float mean = 0.0f, float stddev = 1.0f);

  /// rows x cols with i.i.d. U[lo, hi) entries.
  static Matrix RandomUniform(int64_t rows, int64_t cols, Rng* rng, float lo,
                              float hi);

  /// Identity matrix of size n.
  static Matrix Identity(int64_t n);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Unchecked in Release; debug / sanitizer builds (ADPA_DCHECK_IS_ON)
  /// bounds-check every access.
  float& At(int64_t r, int64_t c) {
    DcheckIndex(r, c);
    return data_[r * cols_ + c];
  }
  float At(int64_t r, int64_t c) const {
    DcheckIndex(r, c);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* Row(int64_t r) {
    DcheckRow(r);
    return data_.data() + r * cols_;
  }
  const float* Row(int64_t r) const {
    DcheckRow(r);
    return data_.data() + r * cols_;
  }

  /// Sets every entry to `value`.
  void Fill(float value);

  /// Reshapes to rows x cols and zeroes every element. Shrinks or grows the
  /// logical shape but never releases capacity, so re-Resizing a buffer to a
  /// shape it has held before performs no allocation (the workspace pool and
  /// the *Into kernels rely on this for allocation-free steady state).
  void Resize(int64_t rows, int64_t cols);

  /// Elementwise in-place updates (parallel; each element is written by
  /// exactly one thread, so results are thread-count independent).
  void AddInPlace(const Matrix& other);
  void SubInPlace(const Matrix& other);
  void MulInPlace(const Matrix& other);  // Hadamard
  void ScaleInPlace(float factor);
  void AddScaledInPlace(const Matrix& other, float factor);  // this += f*other

  /// Applies `fn` to every entry in place: `fn` is inlined into the
  /// elementwise loop and the loop runs in parallel. `fn` must be a pure
  /// elementwise map (no shared mutable state).
  template <typename Fn>
  void ApplyFn(Fn&& fn) {
    float* values = data_.data();
    ParallelFor(0, size(), kElementwiseGrain,
                [values, &fn](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    values[i] = fn(values[i]);
                  }
                });
  }

  /// Reduction helpers. Intentionally serial: a parallel reduction's
  /// combine order would depend on the chunk layout and break the
  /// "bitwise identical for any thread count" contract.
  float SumAll() const;
  float FrobeniusNorm() const;

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Human-readable rendering for debugging/tests.
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Aborts if any entry is NaN or ±Inf; `context` names the tensor in the
  /// failure message. Always compiled in — the trainer exposes it behind
  /// TrainConfig::check_finite so numerical-drift hunts can gate every step
  /// without a rebuild.
  void CheckFinite(const char* context) const;

 private:
  void DcheckIndex(int64_t r, int64_t c) const {
    ADPA_DCHECK_GE(r, 0);
    ADPA_DCHECK_LT(r, rows_);
    ADPA_DCHECK_GE(c, 0);
    ADPA_DCHECK_LT(c, cols_);
  }
  // Row(rows()) is allowed as an end pointer for [Row(r), Row(r+1)) spans.
  void DcheckRow(int64_t r) const {
    ADPA_DCHECK_GE(r, 0);
    ADPA_DCHECK_LE(r, rows_);
  }

  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;
};

/// Dense matmul family.
///
/// Precision contract: every member accumulates each output element in
/// double (the AVX-512 MatMul in double-folded float32 runs) and rounds it
/// to float32 once. Each element's chain is a fixed function of the SIMD
/// level and the shapes, stated per member below, and work is partitioned
/// over disjoint *output* panels, so results are bitwise identical for any
/// thread count. A product of two floats is exact in double, so FMA versus
/// multiply-then-add never changes a bit; only the grouping of a sum does.

/// out = a * b. Shapes must agree (a.cols == b.rows). Routed through the
/// active SIMD level's micro-kernel (simd::Kernels().gemm_rows). Element
/// (i, j) at portable and AVX2: one double sum over p in increasing order
/// (the two levels give the same bits). At AVX-512: float32 FMA runs of 128
/// consecutive p, each run added to a double sum in run order.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// MatMul writing into a caller-owned buffer (resized to a.rows x b.cols;
/// no allocation once `out` has the capacity). `out` must not alias `a` or
/// `b`. Bitwise identical to MatMul.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = aᵀ * b, computed without materializing aᵀ. Element (p, j) at
/// every level: one double sum over rows i in increasing order that skips
/// a[i][p] == 0, so every level gives the same bits.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);

/// out = a * bᵀ, computed without materializing bᵀ. Element (i, j) is the
/// level's dot chain of rows a_i and b_j (simd.h, KernelTable::
/// gemm_bt_rows): one double sum over p in increasing order at portable,
/// which makes it bitwise MatMul(a, bᵀ) there; at AVX2 and AVX-512, 8 and
/// 16 double lanes over p mod L, folded in lane order, then the tail.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// Elementwise binary operations returning new matrices.
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, float factor);

/// Column-wise concatenation: [a | b]. Row counts must match.
Matrix ConcatCols(const Matrix& a, const Matrix& b);
Matrix ConcatCols(const std::vector<Matrix>& parts);

/// ConcatCols over borrowed parts, writing into a caller-owned buffer.
/// `out` must not alias any part.
void ConcatColsInto(const std::vector<const Matrix*>& parts, Matrix* out);

/// Broadcasts a 1 x cols row vector over every row of `a` (addition).
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);

/// In-place row-vector broadcast add: a->Row(r) += row for every r.
void AddRowBroadcastInPlace(Matrix* a, const Matrix& row);

/// Row-wise softmax (parallel over rows; per-row math unchanged).
Matrix SoftmaxRows(const Matrix& a);

/// SoftmaxRows writing into a caller-owned buffer (must not alias `a`).
void SoftmaxRowsInto(const Matrix& a, Matrix* out);

/// Scales row r of `a` by scales(r, 0). `scales` must be a.rows() x 1.
/// Shared by the autograd ScaleRows forward and the no-tape serving path so
/// both produce bitwise-identical values.
Matrix ScaleRows(const Matrix& a, const Matrix& scales);

/// ScaleRows writing into a caller-owned buffer (must not alias `a`).
void ScaleRowsInto(const Matrix& a, const Matrix& scales, Matrix* out);

/// Returns columns [begin, end) as a new matrix.
Matrix SliceCols(const Matrix& a, int64_t begin, int64_t end);

/// SliceCols writing into a caller-owned buffer (must not alias `a`).
void SliceColsInto(const Matrix& a, int64_t begin, int64_t end, Matrix* out);

/// Writes the given rows of `a`, in order (duplicates allowed), into a
/// caller-owned buffer (must not alias `a`). Every row index must lie in
/// [0, a.rows()).
void GatherRowsInto(const Matrix& a, const std::vector<int64_t>& rows,
                    Matrix* out);

/// True when all entries differ by at most `tolerance`.
bool AllClose(const Matrix& a, const Matrix& b, float tolerance = 1e-5f);

}  // namespace adpa

