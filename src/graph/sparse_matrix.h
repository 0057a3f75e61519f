#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/logging.h"
#include "src/core/status.h"
#include "src/tensor/matrix.h"

namespace adpa {

/// One nonzero of a sparse matrix in coordinate form.
struct Triplet {
  int64_t row = 0;
  int64_t col = 0;
  float value = 0.0f;
};

/// Square-or-rectangular CSR float32 sparse matrix. This is the topology
/// container behind every propagation operator in the library: adjacency
/// matrices, normalized convolution operators, magnetic Laplacian parts, and
/// the directed-pattern (DP) products all live here.
///
/// Invariants: row_ptr has rows()+1 monotone entries; within a row, column
/// indices are strictly increasing (duplicates are coalesced at build time).
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  /// Builds from COO triplets. Duplicate (row, col) entries are summed.
  static SparseMatrix FromTriplets(int64_t rows, int64_t cols,
                                   std::vector<Triplet> triplets);

  /// Adopts pre-built CSR arrays (external loaders / serialized operators).
  /// ADPA_CHECK-validates full well-formedness — row_ptr monotone from 0 to
  /// nnz, column indices strictly increasing within each row and in
  /// [0, cols) — and aborts on malformed input; use FromTriplets when the
  /// input is untrusted enough to deserve coalescing instead, or TryFromCsr
  /// when malformed input must be rejected rather than aborted on.
  static SparseMatrix FromCsr(int64_t rows, int64_t cols,
                              std::vector<int64_t> row_ptr,
                              std::vector<int32_t> col_idx,
                              std::vector<float> values);

  /// Status-returning twin of FromCsr for untrusted input (network payloads,
  /// fuzzed parsers): returns InvalidArgument instead of aborting. The
  /// validation order is hostile-input safe — row_ptr bounds are fully
  /// established before any col_idx entry is dereferenced.
  ADPA_NODISCARD static Result<SparseMatrix> TryFromCsr(
      int64_t rows, int64_t cols, std::vector<int64_t> row_ptr,
      std::vector<int32_t> col_idx, std::vector<float> values);

  /// The single source of truth for CSR well-formedness, shared by
  /// FromCsr/TryFromCsr/CheckInvariants. OK iff the arrays form a valid
  /// rows x cols CSR matrix.
  ADPA_NODISCARD static Status ValidateCsr(
      int64_t rows, int64_t cols, const std::vector<int64_t>& row_ptr,
      const std::vector<int32_t>& col_idx, const std::vector<float>& values);

  /// Identity of size n.
  static SparseMatrix Identity(int64_t n);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& mutable_values() { return values_; }

  /// Value at (r, c); 0 if the entry is structurally absent. O(log row nnz).
  float At(int64_t r, int64_t c) const;

  /// out = this * dense. The workhorse SpMM kernel (CSR x dense).
  Matrix Multiply(const Matrix& dense) const;

  /// Multiply writing into a caller-owned buffer (resized to rows() x
  /// dense.cols(); no allocation once `out` has the capacity). `out` must
  /// not alias `dense`. Bitwise identical to Multiply.
  void MultiplyInto(const Matrix& dense, Matrix* out) const;

  /// Fused per-hop propagation chain (DESIGN.md §12):
  ///   out = beta * (this * dense) + alpha * residual
  /// in one pass over the output — the SpMM, the scale, and the residual
  /// add of the unfused Multiply + ScaleInPlace + AddScaledInPlace sequence
  /// without materializing the intermediate product. Bitwise identical to
  /// that unfused sequence at every dispatch level. `residual` may alias
  /// `dense`; `out` must alias neither.
  void MultiplyAxpbyInto(const Matrix& dense, const Matrix& residual,
                         float alpha, float beta, Matrix* out) const;

  /// out = thisᵀ * dense, computed by scatter without materializing thisᵀ.
  Matrix MultiplyTransposed(const Matrix& dense) const;

  /// Returns the explicit transpose in CSR form.
  SparseMatrix Transposed() const;

  /// Sparse-sparse product this * other (the 2-hop proximity operators of
  /// DiGCN and the extended baselines). `max_row_nnz`, if positive, caps
  /// the per-row fill-in by keeping the largest-magnitude entries (density
  /// guard).
  SparseMatrix MultiplySparse(const SparseMatrix& other,
                              int64_t max_row_nnz = 0) const;

  /// Entrywise sum of two same-shape sparse matrices.
  SparseMatrix AddSparse(const SparseMatrix& other) const;

  /// Multiplies every stored value by `factor`.
  void ScaleInPlace(float factor);

  /// Replaces every stored value with 1 (pattern/boolean view).
  SparseMatrix Binarized() const;

  /// Row sums (out-degrees when this is an adjacency matrix).
  std::vector<float> RowSums() const;
  /// Column sums (in-degrees when this is an adjacency matrix).
  std::vector<float> ColSums() const;

  /// Full O(nnz) CSR well-formedness sweep (the class invariants above);
  /// aborts on violation. DebugCheckInvariants is the DCHECK-gated variant
  /// constructors use: free in Release, a full sweep under the sanitizer
  /// presets and debug builds.
  void CheckInvariants() const;
  void DebugCheckInvariants() const {
#if ADPA_DCHECK_IS_ON
    CheckInvariants();
#endif
  }

  /// Dense copy; intended for tests and tiny graphs only.
  Matrix ToDense() const;

  std::string ToString(int max_entries = 16) const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;
  std::vector<int32_t> col_idx_;
  std::vector<float> values_;
};

/// Convolution normalization family of GCN Eq. (1): Ã = D̂^{r-1} Â D̂^{-r}
/// (row degrees on the left, column degrees on the right). r = 0.5 is the
/// symmetric normalization, r = 0 the random-walk D⁻¹A, and r = 1 the
/// reverse-transition A D⁻¹. Zero degrees are left untouched.
SparseMatrix NormalizeConvolution(const SparseMatrix& a, double r);

/// Row-stochastic normalization D_out⁻¹ A.
SparseMatrix NormalizeRow(const SparseMatrix& a);

/// Symmetric normalization D^{-1/2} A D^{-1/2}.
SparseMatrix NormalizeSymmetric(const SparseMatrix& a);

/// A + I (skips rows that already have a diagonal entry, adding to it).
SparseMatrix AddSelfLoops(const SparseMatrix& a, float weight = 1.0f);

}  // namespace adpa

