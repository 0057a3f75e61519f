// Test oracle for the Eq. 4–7 pair counts of src/amud: every pattern's
// boolean reachability materialized as a chain of sparse-sparse products,
// the pair-count loop over it, and a Monte-Carlo pair sampler.
// CountPatternPairs streams the same counts in O(n) memory; the tests
// compare the two.

#pragma once
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <vector>

#include "src/amud/amud.h"
#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/graph/digraph.h"
#include "src/graph/patterns.h"
#include "src/graph/sparse_matrix.h"

namespace adpa {

// gtest prints mismatching counts through this.
inline void PrintTo(const PatternPairCounts& c, std::ostream* os) {
  *os << "{pairs=" << c.pairs << " same_label=" << c.same_label
      << " connected=" << c.connected
      << " connected_same=" << c.connected_same << "}";
}

namespace oracle {

/// Boolean reachability of the pattern over the raw adjacency (no self
/// loops, unnormalized): entry (u,v) = 1 iff v is reachable from u through
/// the pattern's hop sequence. The word [h0, h1, ...] is the product
/// H(h0)·H(h1)·…, formed right to left.
inline SparseMatrix Reachability(const Digraph& graph,
                                 const DirectedPattern& pattern) {
  ADPA_CHECK_GE(pattern.order(), 1);
  const SparseMatrix out = graph.AdjacencyMatrix().Binarized();
  const SparseMatrix in = out.Transposed();
  const auto hop_matrix = [&](Hop hop) -> const SparseMatrix& {
    return hop == Hop::kOut ? out : in;
  };
  SparseMatrix result = hop_matrix(pattern.word.back());
  for (auto it = std::next(pattern.word.rbegin()); it != pattern.word.rend();
       ++it) {
    result = hop_matrix(*it).MultiplySparse(result).Binarized();
  }
  return result;
}

/// Contingency counts over the stored entries of `reach` (diagonal entries
/// excluded: pairs require u != v), restricted to pairs whose both
/// endpoints are in `known_idx` when it is given.
inline PatternPairCounts CountPairs(
    const SparseMatrix& reach, const std::vector<int64_t>& labels,
    const std::vector<int64_t>* known_idx = nullptr) {
  const int64_t n = reach.rows();
  ADPA_CHECK_EQ(reach.cols(), n);
  ADPA_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  std::vector<uint8_t> known(n, known_idx == nullptr ? 1 : 0);
  if (known_idx != nullptr) {
    for (int64_t i : *known_idx) known[i] = 1;
  }
  PatternPairCounts counts;
  int64_t m = 0;
  int64_t max_label = 0;
  for (int64_t u = 0; u < n; ++u) {
    if (!known[u]) continue;
    ++m;
    max_label = std::max(max_label, labels[u]);
  }
  std::vector<int64_t> class_counts(max_label + 1, 0);
  for (int64_t u = 0; u < n; ++u) {
    if (known[u]) ++class_counts[labels[u]];
  }
  for (int64_t count : class_counts) counts.same_label += count * (count - 1);
  counts.pairs = m * (m - 1);
  const auto& row_ptr = reach.row_ptr();
  const auto& col_idx = reach.col_idx();
  const auto& values = reach.values();
  for (int64_t u = 0; u < n; ++u) {
    if (!known[u]) continue;
    for (int64_t p = row_ptr[u]; p < row_ptr[u + 1]; ++p) {
      const int64_t v = col_idx[p];
      if (v == u || !known[v] || values[p] == 0.0f) continue;
      ++counts.connected;
      counts.connected_same += labels[u] == labels[v];
    }
  }
  return counts;
}

/// The phi coefficient of a 2×2 table, in the doubles-only form the
/// materialized AMUD used; the streamed r must equal it bit for bit.
inline double Phi(const PatternPairCounts& counts) {
  const double total_pairs = static_cast<double>(counts.pairs);
  const double n11 = static_cast<double>(counts.connected_same);
  const double n1x = static_cast<double>(counts.connected);
  const double nx1 = static_cast<double>(counts.same_label);
  const double numerator = total_pairs * n11 - n1x * nx1;
  const double denominator = std::sqrt(n1x * (total_pairs - n1x)) *
                             std::sqrt(nx1 * (total_pairs - nx1));
  if (denominator < 1e-12) return 0.0;
  return numerator / denominator;
}

/// Monte-Carlo estimate of r(G_d, N) from `num_samples` uniformly sampled
/// ordered pairs u != v, each looked up in the materialized reachability.
inline double SampledCorrelation(const Digraph& graph,
                                 const DirectedPattern& pattern,
                                 const std::vector<int64_t>& labels,
                                 int64_t num_samples, Rng* rng) {
  ADPA_CHECK(rng != nullptr);
  ADPA_CHECK_GT(num_samples, 0);
  const int64_t n = graph.num_nodes();
  ADPA_CHECK_GE(n, 2);
  const SparseMatrix reach = Reachability(graph, pattern);
  PatternPairCounts sample;
  sample.pairs = num_samples;
  for (int64_t s = 0; s < num_samples; ++s) {
    const int64_t u = rng->UniformInt(n);
    int64_t v = rng->UniformInt(n - 1);
    if (v >= u) ++v;  // uniform over ordered pairs with u != v
    const bool is_connected = reach.At(u, v) != 0.0f;
    const bool is_same = labels[u] == labels[v];
    sample.connected += is_connected;
    sample.same_label += is_same;
    sample.connected_same += is_connected && is_same;
  }
  return Phi(sample);
}

}  // namespace oracle
}  // namespace adpa
