#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/graph/digraph.h"
#include "src/graph/patterns.h"

namespace adpa {

/// AMUD's verdict for a natural digraph (Sec. III-C): keep the directed
/// edges, or apply the coarse undirected transformation before learning.
enum class AmudDecision { kUndirected, kDirected };

/// Decision threshold θ of Sec. III-C: S > θ keeps the directed edges.
inline constexpr double kAmudThreshold = 0.5;

/// The 0.999 quantile of χ²(1): ComputeAmud's no-signal floor on the pair
/// table's χ² statistic N · R² (derivation in DESIGN.md §5).
inline constexpr double kNoSignalChiSquare = 10.83;

/// Correlation of one DP with the node profiles.
struct PatternCorrelation {
  DirectedPattern pattern;
  double r = 0.0;         ///< Pearson r(G_d, N), Eq. (7)
  double r_squared = 0.0; ///< R² = r², the linear-fit determination
};

/// The 2×2 contingency table of one DP over a population of ordered pairs
/// (u, v), u != v: G_d(u,v) = "v is reachable from u through the pattern"
/// against N(u,v) = 1[labels_u == labels_v].
struct PatternPairCounts {
  int64_t pairs = 0;           ///< population size
  int64_t same_label = 0;      ///< pairs with N = 1
  int64_t connected = 0;       ///< pairs with G_d = 1
  int64_t connected_same = 0;  ///< pairs with G_d = N = 1

  /// Pearson r(G_d, N) of Eq. 4–7. Both variables are binary, so this is
  /// the phi coefficient of the table; 0 when either variable is constant.
  double Correlation() const;

  friend bool operator==(const PatternPairCounts&,
                         const PatternPairCounts&) = default;
};

/// Counts the Eq. 4–7 table of every pattern without materializing its
/// reachability. Each row u expands the pattern word hop by hop over
/// OutNeighbors / InNeighbors; one stamp array de-duplicates every level,
/// so the last level is the distinct endpoint set of u (for A·Aᵀ, the
/// co-target neighbourhood). Memory is O(n); time is the number of walk
/// steps. The population is every ordered pair u != v or, when `known_idx`
/// is given, the pairs whose *both* endpoints are in it — the
/// semi-supervised variant of DP selection, where only training labels may
/// be consulted (Sec. IV-B); walks may pass through any node.
///
/// InvalidArgument on a labels size mismatch, an empty pattern word or a
/// duplicate known index; OutOfRange on a known index outside [0, n) or a
/// negative label in the population.
Result<std::vector<PatternPairCounts>> CountPatternPairs(
    const Digraph& graph, const std::vector<int64_t>& labels,
    const std::vector<DirectedPattern>& patterns,
    const std::vector<int64_t>* known_idx = nullptr);

/// Full AMUD report: per-pattern correlations (the 2 first-order operators
/// are included for inspection; the guidance score uses the 4 second-order
/// ones per Sec. III-C), the guidance score S of Eq. (8), and the decision.
struct AmudReport {
  std::vector<PatternCorrelation> correlations;
  double score = 0.0;
  AmudDecision decision = AmudDecision::kUndirected;

  std::string ToString() const;
};

/// The paper's DP-selection rule (Sec. IV-B): enumerate all patterns up to
/// `max_order`, rank them by r(G_d, N) computed on the labeled subset
/// `known_idx` (CountPatternPairs' masked population), and return the
/// `keep` most positively correlated ones; ties keep enumeration order.
/// Guides ADPA toward the operators whose propagation rule matches the
/// label structure. Fails with CountPatternPairs' errors on bad inputs.
Result<std::vector<DirectedPattern>> SelectPatternsByCorrelation(
    const Digraph& graph, const std::vector<int64_t>& labels,
    const std::vector<int64_t>& known_idx, int max_order, int keep);

/// Runs the full AMUD analysis on a natural digraph: computes R²(G_d, N)
/// for the first- and second-order DPs, derives the guidance score
/// S = α · sqrt(Σ_{i≠j} ‖R²_i − R²_j‖² / C(4,2)) with α = 1/max R² (Eq. 8,
/// scale-invariant reading; see the .cc for rationale), and recommends
/// directed modeling iff S > kAmudThreshold. S is defined as 0 when no
/// second-order DP correlates with the profiles at all, that is when
/// n(n−1) · max R²_i < kNoSignalChiSquare over the four second-order DPs —
/// directed topology without label signal cannot help directed models.
/// Pairs share endpoints, so this is a floor for "no signal at all", not a
/// calibrated significance test.
Result<AmudReport> ComputeAmud(const Digraph& graph,
                               const std::vector<int64_t>& labels,
                               int64_t num_classes);

/// Convenience: applies the AMUD decision, returning either the graph
/// itself (kDirected) or its undirected transformation (kUndirected).
Digraph ApplyAmudDecision(const Digraph& graph, AmudDecision decision);

}  // namespace adpa
