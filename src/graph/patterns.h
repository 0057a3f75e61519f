#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/sparse_matrix.h"
#include "src/tensor/matrix.h"

namespace adpa {

/// One first-order hop of a directed pattern: following out-edges applies
/// A_d; following in-edges applies A_dᵀ.
enum class Hop { kOut, kIn };

/// A directed pattern (DP, Sec. IV-B) is a word over {A_d, A_dᵀ}; its order
/// is the word length. Order 1 yields {A, Aᵀ}; order 2 adds the four
/// products {AA, AᵀAᵀ, AAᵀ, AᵀA} that the paper identifies as carrying
/// homophily (AAᵀ, AᵀA) vs. directional-heterophily (AA, AᵀAᵀ) signal.
struct DirectedPattern {
  std::vector<Hop> word;

  int order() const { return static_cast<int>(word.size()); }

  /// Display name, e.g. "A", "AT", "A*AT".
  std::string Name() const;

  friend bool operator==(const DirectedPattern& a, const DirectedPattern& b) {
    return a.word == b.word;
  }
};

/// All DPs with order in [1, max_order], enumerated shortest-first and in
/// {Out, In} lexicographic order. Sizes follow the paper's k = 2¹+…+2ᴺ rule:
/// max_order=1 -> 2 patterns, max_order=2 -> 6, max_order=3 -> 14, ...
std::vector<DirectedPattern> EnumeratePatterns(int max_order);

/// Just the four order-2 products used by the AMUD guidance score (Eq. 8).
std::vector<DirectedPattern> SecondOrderPatterns();

/// Precomputed single-hop operators for a digraph, from which any DP is
/// applied lazily as a chain of SpMM calls — products of sparse operators
/// are never materialized (complexity O(k·K·m·f), Sec. IV-D).
class PatternSet {
 public:
  /// `conv_r` selects the Eq. (1) normalization exponent applied to A and
  /// Aᵀ independently (0.5 = symmetric); `self_loops` adds Â = A + I before
  /// normalizing, the standard GCN trick the propagation operators reuse.
  PatternSet(const SparseMatrix& adjacency, double conv_r = 0.5,
             bool self_loops = true);

  int64_t num_nodes() const { return a_norm_.rows(); }

  /// Returns (G_p) x where G_p is the normalized operator product of the
  /// pattern word. For word [h0, h1, ...] the operator is G_{h0}·G_{h1}·…,
  /// so hops are applied right-to-left.
  Matrix Apply(const DirectedPattern& pattern, const Matrix& x) const;

  /// One single hop step (used by iterated K-step propagation).
  Matrix ApplyHop(Hop hop, const Matrix& x) const;

  /// ApplyHop writing into a caller-owned buffer (`out` must not alias
  /// `x`). Bitwise identical to ApplyHop; no allocation once `out` has the
  /// capacity.
  void ApplyHopInto(Hop hop, const Matrix& x, Matrix* out) const;

  /// Advances every per-pattern propagation state by one pattern
  /// application: (*states)[g] = Apply(patterns[g], (*states)[g]). The k
  /// chains are independent and run in parallel (their inner SpMM calls
  /// then run inline); results are bitwise identical to calling Apply
  /// sequentially for any thread count. Hops ping-pong between the state
  /// and a per-thread scratch buffer, so steady-state steps allocate
  /// nothing.
  void ApplyStep(const std::vector<DirectedPattern>& patterns,
                 std::vector<Matrix>* states) const;

  const SparseMatrix& normalized_out() const { return a_norm_; }
  const SparseMatrix& normalized_in() const { return at_norm_; }

 private:
  SparseMatrix a_norm_;   // normalized Â
  SparseMatrix at_norm_;  // normalized Âᵀ
};

}  // namespace adpa

