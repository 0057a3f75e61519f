// AMUD framework tests: the Eq. (4-7) pair counts against the materialized
// oracle, the Eq. (8) score, and the modeling guidance over constructed and
// calibrated graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/amud/amud.h"
#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/data/generators.h"
#include "tests/pattern_oracle.h"

namespace adpa {
namespace {

const DirectedPattern kOutHop{{Hop::kOut}};
const DirectedPattern kCoTarget{{Hop::kOut, Hop::kIn}};  // A·Aᵀ

PatternPairCounts CountOne(const Digraph& graph,
                           const std::vector<int64_t>& labels,
                           const DirectedPattern& pattern) {
  return std::move(CountPatternPairs(graph, labels, {pattern})).value()[0];
}

TEST(AmudCorrelationTest, PositiveWhenConnectionPredictsSameLabel) {
  // A reaches exactly the same-label pairs.
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  const double r = CountOne(g, {0, 0, 1, 1}, kOutHop).Correlation();
  EXPECT_NEAR(r, 1.0, 1e-9);  // perfect agreement over all 12 ordered pairs
}

TEST(AmudCorrelationTest, NegativeWhenConnectionPredictsDifferentLabel) {
  Digraph g = Digraph::CreateOrDie(4, {{0, 2}, {0, 3}, {1, 2}, {1, 3}});
  const double r = CountOne(g, {0, 0, 1, 1}, kOutHop).Correlation();
  EXPECT_NEAR(r, -0.5, 1e-6);  // exact phi for this contingency table
}

TEST(AmudCorrelationTest, ZeroWhenNoConnections) {
  Digraph g = Digraph::CreateOrDie(4, {});
  EXPECT_DOUBLE_EQ(CountOne(g, {0, 0, 1, 1}, kOutHop).Correlation(), 0.0);
}

TEST(AmudCorrelationTest, DiagonalEntriesAreIgnored) {
  // 0 -> 1, 2 -> 1: A·Aᵀ reaches {0, 2} from 0 and from 2, so its
  // reachability holds (0,0) and (2,2), which are not pairs.
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {2, 1}});
  EXPECT_EQ(oracle::Reachability(g, kCoTarget).nnz(), 4);
  const PatternPairCounts counts = CountOne(g, {0, 1, 0}, kCoTarget);
  EXPECT_EQ(counts.pairs, 6);
  EXPECT_EQ(counts.same_label, 2);
  EXPECT_EQ(counts.connected, 2);
  EXPECT_EQ(counts.connected_same, 2);
  EXPECT_DOUBLE_EQ(counts.Correlation(), 1.0);
}

TEST(AmudCorrelationTest, SampledEstimatorAgreesWithExact) {
  DsbmConfig config;
  config.num_nodes = 300;
  config.num_classes = 4;
  config.avg_out_degree = 6.0;
  config.class_transition = CyclicTransition(4, 0.8, 0.1);
  config.feature_dim = 4;
  config.seed = 5;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(17);
  for (const DirectedPattern& p : SecondOrderPatterns()) {
    const double exact = CountOne(ds.graph, ds.labels, p).Correlation();
    const double sampled = oracle::SampledCorrelation(
        ds.graph, p, ds.labels, /*num_samples=*/200000, &rng);
    EXPECT_NEAR(sampled, exact, 0.02) << p.Name();
  }
}

// The streamed counts equal the materialized oracle's for every pattern of
// order <= 3, over all pairs and over the pairs of a random half of the
// nodes, on a cyclic, a symmetric and a zero-out-degree graph.
TEST(AmudCorrelationTest, StreamedCountsMatchOracle) {
  DsbmConfig config;
  config.num_nodes = 240;
  config.num_classes = 4;
  config.avg_out_degree = 4.0;
  config.feature_dim = 2;
  config.seed = 21;
  config.class_transition = CyclicTransition(4, 0.8, 0.1);
  Dataset cyclic = std::move(GenerateDsbm(config)).value();
  config.class_transition = HomophilousTransition(4, 0.7);
  config.reciprocal_prob = 1.0;
  Dataset symmetric = std::move(GenerateDsbm(config)).value();
  // Every third node keeps no out-edge.
  std::vector<Edge> sparse_edges;
  for (const Edge& e : cyclic.graph.edges()) {
    if (e.src % 3 != 0) sparse_edges.push_back(e);
  }
  const Digraph sinks =
      Digraph::CreateOrDie(cyclic.num_nodes(), std::move(sparse_edges));
  ASSERT_TRUE(symmetric.graph.IsSymmetric());

  const std::vector<DirectedPattern> patterns = EnumeratePatterns(3);
  Rng rng(23);
  std::vector<int64_t> half(cyclic.num_nodes());
  std::iota(half.begin(), half.end(), 0);
  rng.Shuffle(&half);
  half.resize(half.size() / 2);
  const std::pair<const char*, const Digraph*> graphs[] = {
      {"cyclic", &cyclic.graph},
      {"symmetric", &symmetric.graph},
      {"sinks", &sinks}};
  const std::vector<int64_t>* const masks[] = {nullptr, &half};
  for (const auto& [name, graph] : graphs) {
    const std::vector<int64_t>& labels =
        graph == &symmetric.graph ? symmetric.labels : cyclic.labels;
    for (const std::vector<int64_t>* known : masks) {
      const std::vector<PatternPairCounts> streamed =
          std::move(CountPatternPairs(*graph, labels, patterns, known))
              .value();
      ASSERT_EQ(streamed.size(), patterns.size());
      for (size_t i = 0; i < patterns.size(); ++i) {
        const PatternPairCounts expected = oracle::CountPairs(
            oracle::Reachability(*graph, patterns[i]), labels, known);
        EXPECT_EQ(streamed[i], expected)
            << name << " " << patterns[i].Name()
            << (known != nullptr ? " masked" : "");
        EXPECT_EQ(streamed[i].Correlation(), oracle::Phi(expected));
      }
    }
  }
}

TEST(AmudCorrelationTest, CountsValidateArguments) {
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {1, 2}});
  const std::vector<DirectedPattern> patterns = {kOutHop};
  const std::vector<int64_t> labels = {0, 1, 0};
  EXPECT_EQ(CountPatternPairs(g, {0, 1}, patterns).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CountPatternPairs(g, labels, {DirectedPattern{}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CountPatternPairs(g, {0, -1, 0}, patterns).status().code(),
            StatusCode::kOutOfRange);
  const std::vector<int64_t> out_of_range = {0, 3};
  EXPECT_EQ(CountPatternPairs(g, labels, patterns, &out_of_range)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  const std::vector<int64_t> duplicate = {0, 2, 0};
  EXPECT_EQ(
      CountPatternPairs(g, labels, patterns, &duplicate).status().code(),
      StatusCode::kInvalidArgument);
  // Only the population's labels are read: an unknown node may carry any.
  const std::vector<int64_t> known = {0, 2};
  EXPECT_TRUE(CountPatternPairs(g, {0, -1, 0}, patterns, &known).ok());
}

TEST(AmudScoreTest, InputValidation) {
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}});
  EXPECT_FALSE(ComputeAmud(g, {0, 1}, 2).ok());               // size mismatch
  EXPECT_FALSE(ComputeAmud(g, {0, 1, 5, 0}, 2).ok());         // label range
  Digraph empty = Digraph::CreateOrDie(4, {});
  EXPECT_FALSE(ComputeAmud(empty, {0, 1, 0, 1}, 2).ok());     // no edges
}

TEST(AmudScoreTest, ReportContainsSixPatternCorrelations) {
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  AmudReport report = std::move(ComputeAmud(g, {0, 1, 0, 1}, 2)).value();
  EXPECT_EQ(report.correlations.size(), 6u);  // A, AT + four 2-order DPs
  EXPECT_EQ(report.correlations[0].pattern.Name(), "A");
  EXPECT_EQ(report.correlations[1].pattern.Name(), "AT");
  for (const auto& c : report.correlations) {
    EXPECT_NEAR(c.r_squared, c.r * c.r, 1e-12);
  }
}

TEST(AmudScoreTest, SymmetricGraphScoresNearZero) {
  // On a symmetric graph all four 2-order reachabilities coincide exactly,
  // so the disparity — and the score — must vanish.
  DsbmConfig config;
  config.num_nodes = 400;
  config.num_classes = 3;
  config.avg_out_degree = 5.0;
  config.class_transition = HomophilousTransition(3, 0.7);
  config.reciprocal_prob = 1.0;
  config.feature_dim = 4;
  config.seed = 9;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, 3)).value();
  EXPECT_LT(report.score, 1e-6);
  EXPECT_EQ(report.decision, AmudDecision::kUndirected);
}

TEST(AmudScoreTest, CyclicClassProgressionScoresHigh) {
  // The paper's Fig. 3 situation: A·Aᵀ homophilous, A·A walks two classes
  // ahead. Disparity among 2-order DPs must push S above θ.
  DsbmConfig config;
  config.num_nodes = 500;
  config.num_classes = 5;
  config.avg_out_degree = 5.0;
  config.class_transition = CyclicTransition(5, 0.85, 0.05);
  config.feature_dim = 4;
  config.seed = 10;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, 5)).value();
  EXPECT_GT(report.score, 0.5);
  EXPECT_EQ(report.decision, AmudDecision::kDirected);
  // And the co-target pattern must be the homophilous one: r(A·Aᵀ) high.
  double r_aat = 0.0, r_aa = 0.0;
  for (const auto& c : report.correlations) {
    if (c.pattern.Name() == "A*AT") r_aat = c.r;
    if (c.pattern.Name() == "A*A") r_aa = c.r;
  }
  EXPECT_GT(r_aat, 0.1);
  EXPECT_LT(r_aa, r_aat);
}

// The no-signal floor is a χ² statistic on the pair table, N · max R² <
// kNoSignalChiSquare, not an absolute R² floor: φ² of sparse pair variables
// shrinks like 1/n at a fixed degree, and only the node count changes here.
Dataset LargeRegistryGraph(const std::string& name, double scale) {
  BenchmarkSpec spec = std::move(FindBenchmark(name)).value();
  spec.config.feature_dim = 1;  // AMUD reads only the graph and labels
  return std::move(BuildBenchmark(spec, /*seed=*/0, scale)).value();
}

double MaxSecondOrderR2(const AmudReport& report) {
  double max_r2 = 0.0;
  for (const PatternCorrelation& c : report.correlations) {
    if (c.pattern.order() == 2) max_r2 = std::max(max_r2, c.r_squared);
  }
  return max_r2;
}

TEST(AmudScoreTest, LargeDirectedGraphKeepsItsVerdict) {
  // Texas x3000 (549k nodes): max R² ~ 7.7e-6 sits below the old absolute
  // 1e-5 floor, which answered "undirected" by size alone.
  Dataset ds = LargeRegistryGraph("Texas", 3000.0);
  ASSERT_GT(ds.num_nodes(), 500000);
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, ds.num_classes)).value();
  EXPECT_LT(MaxSecondOrderR2(report), 1e-5);
  EXPECT_GT(report.score, kAmudThreshold);
  EXPECT_EQ(report.decision, AmudDecision::kDirected) << report.ToString();
}

TEST(AmudScoreTest, LargeUndirectedGraphStaysUndirected) {
  Dataset ds = LargeRegistryGraph("CiteSeer", 400.0);  // 520k nodes
  ASSERT_GT(ds.num_nodes(), 500000);
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, ds.num_classes)).value();
  EXPECT_EQ(report.decision, AmudDecision::kUndirected) << report.ToString();
}

TEST(AmudScoreTest, NoSignalFloorScalesWithPairCount) {
  // 40 nodes, label-blind topology: every R² is sampling noise. It clears
  // the old absolute 1e-5 floor, and the disparity alone would read S > θ,
  // but N · max R² is far below the χ² floor, so S = 0.
  DsbmConfig config;
  config.num_nodes = 40;
  config.num_classes = 3;
  config.avg_out_degree = 3.0;
  config.class_transition = HomophilousTransition(3, 1.0 / 3.0);
  config.edge_noise = 0.0;
  config.feature_dim = 1;
  config.seed = 2;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  AmudReport report = std::move(ComputeAmud(ds.graph, ds.labels, 3)).value();
  std::vector<double> r2;
  for (const PatternCorrelation& c : report.correlations) {
    if (c.pattern.order() == 2) r2.push_back(c.r_squared);
  }
  const double max_r2 = MaxSecondOrderR2(report);
  double disparity = 0.0;
  for (double a : r2) {
    for (double b : r2) disparity += (a - b) * (a - b);
  }
  ASSERT_GT(max_r2, 1e-5);
  ASSERT_GT(std::sqrt(disparity / 6.0) / max_r2, kAmudThreshold);
  ASSERT_LT(40.0 * 39.0 * max_r2, kNoSignalChiSquare);
  EXPECT_EQ(report.score, 0.0);
  EXPECT_EQ(report.decision, AmudDecision::kUndirected);
}

TEST(AmudDecisionTest, ApplyDecisionTransformsGraph) {
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {1, 2}});
  Digraph kept = ApplyAmudDecision(g, AmudDecision::kDirected);
  EXPECT_EQ(kept.num_edges(), 2);
  EXPECT_FALSE(kept.IsSymmetric());
  Digraph undirected = ApplyAmudDecision(g, AmudDecision::kUndirected);
  EXPECT_TRUE(undirected.IsSymmetric());
  EXPECT_EQ(undirected.num_edges(), 4);
}

// Calibration property: every registry dataset must reproduce the paper's
// U-/D- guidance (Table II), including the two "abnormal" heterophilous
// cases Actor and Amazon-rating, at calibrated, half and tenfold scale.
// Parameter p is spec p % 14 at kRegistryScales[p / 14].
constexpr double kRegistryScales[] = {1.0, 0.5, 10.0};

const BenchmarkSpec& RegistrySpec(int param) {
  return BenchmarkSuite()[param % BenchmarkSuite().size()];
}

double RegistryScale(int param) {
  return kRegistryScales[param / BenchmarkSuite().size()];
}

class RegistryAmudTest : public ::testing::TestWithParam<int> {};

TEST_P(RegistryAmudTest, DecisionMatchesPaper) {
  const BenchmarkSpec& spec = RegistrySpec(GetParam());
  Dataset ds = std::move(BuildBenchmark(spec, /*seed=*/0,
                                        RegistryScale(GetParam())))
                   .value();
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, ds.num_classes)).value();
  EXPECT_EQ(report.decision, spec.expect_directed
                                 ? AmudDecision::kDirected
                                 : AmudDecision::kUndirected)
      << spec.name << " S=" << report.score;
  // Both regimes keep their margin around θ at every scale (measured:
  // D- specs S in [0.88, 1.15], U- specs S <= 0.15).
  if (spec.expect_directed) {
    EXPECT_GT(report.score, 0.8) << spec.name;
  } else {
    EXPECT_LT(report.score, 0.2) << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RegistryAmudTest,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return RegistrySpec(info.param).name;
                         });

INSTANTIATE_TEST_SUITE_P(AcrossScales, RegistryAmudTest,
                         ::testing::Range(14, 42),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return RegistrySpec(info.param).name +
                                  (RegistryScale(info.param) < 1.0 ? "_x0_5"
                                                                   : "_x10");
                         });

// Every registry graph's streamed r equals the materialized oracle's bit for
// bit: the six AMUD patterns over all pairs, and over the training pairs
// that DP selection reads.
class RegistryOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(RegistryOracleTest, StreamedCorrelationsEqualOracle) {
  const BenchmarkSpec& spec = BenchmarkSuite()[GetParam()];
  Dataset ds = std::move(BuildBenchmark(spec, /*seed=*/0)).value();
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, ds.num_classes)).value();
  std::vector<DirectedPattern> patterns;
  for (const PatternCorrelation& c : report.correlations) {
    patterns.push_back(c.pattern);
  }
  const std::vector<PatternPairCounts> masked =
      std::move(CountPatternPairs(ds.graph, ds.labels, patterns,
                                  &ds.train_idx))
          .value();
  for (size_t i = 0; i < patterns.size(); ++i) {
    const SparseMatrix reach = oracle::Reachability(ds.graph, patterns[i]);
    EXPECT_EQ(report.correlations[i].r,
              oracle::Phi(oracle::CountPairs(reach, ds.labels)))
        << patterns[i].Name();
    EXPECT_EQ(masked[i].Correlation(),
              oracle::Phi(oracle::CountPairs(reach, ds.labels,
                                             &ds.train_idx)))
        << patterns[i].Name() << " masked";
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RegistryOracleTest,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return BenchmarkSuite()[info.param].name;
                         });

}  // namespace
}  // namespace adpa
