#include "src/amud/amud.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/core/strings.h"

namespace adpa {

double PatternPairCounts::Correlation() const {
  const double total_pairs = static_cast<double>(pairs);
  const double n11 = static_cast<double>(connected_same);
  const double n1x = static_cast<double>(connected);
  const double nx1 = static_cast<double>(same_label);
  const double numerator = total_pairs * n11 - n1x * nx1;
  const double denominator = std::sqrt(n1x * (total_pairs - n1x)) *
                             std::sqrt(nx1 * (total_pairs - nx1));
  if (denominator < 1e-12) return 0.0;
  return numerator / denominator;
}

Result<std::vector<PatternPairCounts>> CountPatternPairs(
    const Digraph& graph, const std::vector<int64_t>& labels,
    const std::vector<DirectedPattern>& patterns,
    const std::vector<int64_t>* known_idx) {
  const int64_t n = graph.num_nodes();
  if (static_cast<int64_t>(labels.size()) != n) {
    return Status::InvalidArgument("labels size must equal num_nodes");
  }
  for (const DirectedPattern& p : patterns) {
    if (p.order() < 1) {
      return Status::InvalidArgument("a directed pattern needs a hop");
    }
  }
  // The population's nodes, each at most once, and their labels.
  std::vector<uint8_t> known(n, known_idx == nullptr ? 1 : 0);
  std::vector<int64_t> population_labels;
  if (known_idx == nullptr) {
    population_labels = labels;
  } else {
    for (int64_t i : *known_idx) {
      if (i < 0 || i >= n) {
        return Status::OutOfRange("known index out of range");
      }
      if (known[i]) return Status::InvalidArgument("duplicate known index");
      known[i] = 1;
      population_labels.push_back(labels[i]);
    }
  }
  // Same-label ordered pairs Σ_c m_c (m_c − 1), over runs of sorted labels.
  std::sort(population_labels.begin(), population_labels.end());
  if (!population_labels.empty() && population_labels.front() < 0) {
    return Status::OutOfRange("labels must be non-negative");
  }
  const int64_t m = static_cast<int64_t>(population_labels.size());
  int64_t same_label = 0;
  for (int64_t begin = 0, end = 0; begin < m; begin = end) {
    while (end < m && population_labels[end] == population_labels[begin]) {
      ++end;
    }
    same_label += (end - begin) * (end - begin - 1);
  }

  // stamp[y] == level iff y is already in the frontier being built; every
  // (row, hop) gets a fresh level, so the array is never cleared.
  std::vector<int64_t> stamp(n, -1);
  int64_t level = 0;
  std::vector<int64_t> frontier, next;
  std::vector<PatternPairCounts> counts;
  for (const DirectedPattern& p : patterns) {
    PatternPairCounts c;
    c.pairs = m * (m - 1);
    c.same_label = same_label;
    for (int64_t u = 0; u < n; ++u) {
      if (!known[u]) continue;
      // The word G_{h0}·G_{h1}·… reaches from u through h0 first.
      frontier.assign(1, u);
      for (Hop hop : p.word) {
        next.clear();
        for (int64_t x : frontier) {
          for (int64_t y : hop == Hop::kOut ? graph.OutNeighbors(x)
                                            : graph.InNeighbors(x)) {
            if (stamp[y] == level) continue;
            stamp[y] = level;
            next.push_back(y);
          }
        }
        ++level;
        std::swap(frontier, next);
      }
      for (int64_t v : frontier) {
        if (v == u || !known[v]) continue;
        ++c.connected;
        c.connected_same += labels[u] == labels[v];
      }
    }
    counts.push_back(c);
  }
  return counts;
}

Result<std::vector<DirectedPattern>> SelectPatternsByCorrelation(
    const Digraph& graph, const std::vector<int64_t>& labels,
    const std::vector<int64_t>& known_idx, int max_order, int keep) {
  if (max_order < 1) return Status::InvalidArgument("max_order must be >= 1");
  if (keep < 1) return Status::InvalidArgument("keep must be >= 1");
  if (known_idx.size() < 2) {
    return Status::FailedPrecondition(
        "DP selection needs at least two labeled nodes");
  }
  const std::vector<DirectedPattern> patterns = EnumeratePatterns(max_order);
  Result<std::vector<PatternPairCounts>> counts =
      CountPatternPairs(graph, labels, patterns, &known_idx);
  if (!counts.ok()) return counts.status();
  std::vector<std::pair<double, DirectedPattern>> scored;
  for (size_t i = 0; i < patterns.size(); ++i) {
    scored.emplace_back((*counts)[i].Correlation(), patterns[i]);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<DirectedPattern> selected;
  const int count = std::min<int>(keep, static_cast<int>(scored.size()));
  for (int i = 0; i < count; ++i) selected.push_back(scored[i].second);
  return selected;
}

std::string AmudReport::ToString() const {
  std::ostringstream out;
  out << "AMUD score S = " << FormatDouble(score, 3) << " -> "
      << (decision == AmudDecision::kDirected ? "retain directed edges"
                                              : "undirected transformation")
      << "\n";
  for (const PatternCorrelation& c : correlations) {
    out << "  r(" << c.pattern.Name() << ", N) = " << FormatDouble(c.r, 4)
        << "  R^2 = " << FormatDouble(c.r_squared, 4) << "\n";
  }
  return out.str();
}

Result<AmudReport> ComputeAmud(const Digraph& graph,
                               const std::vector<int64_t>& labels,
                               int64_t num_classes) {
  if (graph.num_nodes() < 2) {
    return Status::InvalidArgument("AMUD requires at least two nodes");
  }
  if (static_cast<int64_t>(labels.size()) != graph.num_nodes()) {
    return Status::InvalidArgument("labels size must equal num_nodes");
  }
  for (int64_t label : labels) {
    if (label < 0 || label >= num_classes) {
      return Status::OutOfRange("label out of range");
    }
  }
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("AMUD requires a non-empty edge set");
  }

  // First-order operators, reported for inspection / DP selection; the
  // second-order ones drive the Eq. (8) score.
  std::vector<DirectedPattern> patterns = {DirectedPattern{{Hop::kOut}},
                                           DirectedPattern{{Hop::kIn}}};
  for (const DirectedPattern& p : SecondOrderPatterns()) patterns.push_back(p);
  Result<std::vector<PatternPairCounts>> counts =
      CountPatternPairs(graph, labels, patterns);
  if (!counts.ok()) return counts.status();

  AmudReport report;
  std::vector<double> second_order_r2;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const double r = (*counts)[i].Correlation();
    report.correlations.push_back({patterns[i], r, r * r});
    if (patterns[i].order() == 2) second_order_r2.push_back(r * r);
  }

  // Eq. (8): S = α sqrt(Σ_{i≠j} ||R²_i − R²_j||² / C(4,2)), α = 1 / max R².
  // This is the scale-invariant reading of the paper's formula: the RMS
  // disparity among the four 2-order DP correlations, measured relative to
  // the strongest correlation. Equal correlations (direction carries no
  // extra label signal) give S ≈ 0; a split between strong and near-zero
  // patterns (direction-dependent structure) gives S ≈ 1.15.
  double max_r2 = 0.0;
  for (double r2 : second_order_r2) max_r2 = std::max(max_r2, r2);
  double disparity = 0.0;
  for (size_t i = 0; i < second_order_r2.size(); ++i) {
    for (size_t j = 0; j < second_order_r2.size(); ++j) {
      if (i == j) continue;
      const double diff = second_order_r2[i] - second_order_r2[j];
      disparity += diff * diff;
    }
  }
  constexpr double kPairCount = 6.0;  // C(4, 2)
  const double pairs = static_cast<double>(counts->front().pairs);
  if (pairs * max_r2 < kNoSignalChiSquare) {
    // No second-order operator correlates with the profiles at all:
    // directed topology carries no signal, recommend undirected modeling.
    report.score = 0.0;
  } else {
    report.score = std::sqrt(disparity / kPairCount) / max_r2;
  }
  report.decision = report.score > kAmudThreshold ? AmudDecision::kDirected
                                                  : AmudDecision::kUndirected;
  return report;
}

Digraph ApplyAmudDecision(const Digraph& graph, AmudDecision decision) {
  return decision == AmudDecision::kDirected ? graph : graph.ToUndirected();
}

}  // namespace adpa
