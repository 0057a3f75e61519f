// Tests for the Digraph container and directed-pattern algebra.

#include <gtest/gtest.h>

#include "src/amud/amud.h"
#include "src/core/random.h"
#include "src/graph/digraph.h"
#include "src/graph/patterns.h"
#include "tests/pattern_oracle.h"

namespace adpa {
namespace {

Digraph ToyCycle() {
  // 0 -> 1 -> 2 -> 0 plus chord 0 -> 2.
  return Digraph::CreateOrDie(3, {{0, 1}, {1, 2}, {2, 0}, {0, 2}});
}

TEST(DigraphTest, CreateValidatesEndpoints) {
  EXPECT_FALSE(Digraph::Create(2, {{0, 5}}).ok());
  EXPECT_FALSE(Digraph::Create(2, {{-1, 0}}).ok());
  EXPECT_EQ(Digraph::Create(2, {{0, 5}}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(DigraphTest, CreateRejectsSelfLoops) {
  Result<Digraph> r = Digraph::Create(3, {{1, 1}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DigraphTest, DuplicateEdgesAreCoalesced) {
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(DigraphTest, NeighborsAndDegrees) {
  Digraph g = ToyCycle();
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.InDegree(0), 1);
  EXPECT_EQ(g.OutNeighbors(0), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(g.InNeighbors(2), (std::vector<int64_t>{0, 1}));
}

TEST(DigraphTest, HasEdgeIsDirectional) {
  Digraph g = ToyCycle();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
}

TEST(DigraphTest, AdjacencyMatrixMatchesEdges) {
  Digraph g = ToyCycle();
  SparseMatrix a = g.AdjacencyMatrix();
  EXPECT_EQ(a.nnz(), g.num_edges());
  for (const Edge& e : g.edges()) {
    EXPECT_FLOAT_EQ(a.At(e.src, e.dst), 1.0f);
  }
  EXPECT_FLOAT_EQ(a.At(1, 0), 0.0f);
}

TEST(DigraphTest, ToUndirectedSymmetrizes) {
  Digraph g = ToyCycle();
  EXPECT_FALSE(g.IsSymmetric());
  Digraph u = g.ToUndirected();
  EXPECT_TRUE(u.IsSymmetric());
  // 4 directed edges cover 3 distinct node pairs -> 6 symmetric arcs.
  EXPECT_EQ(u.num_edges(), 6);
  EXPECT_TRUE(u.HasEdge(1, 0));
}

TEST(DigraphTest, ReciprocityRatio) {
  Digraph one_way = Digraph::CreateOrDie(3, {{0, 1}, {1, 2}});
  EXPECT_DOUBLE_EQ(one_way.ReciprocityRatio(), 0.0);
  Digraph mixed = Digraph::CreateOrDie(3, {{0, 1}, {1, 0}, {1, 2}});
  EXPECT_NEAR(mixed.ReciprocityRatio(), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(one_way.ToUndirected().ReciprocityRatio(), 1.0);
}

TEST(DigraphTest, EmptyGraph) {
  Digraph g = Digraph::CreateOrDie(5, {});
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.IsSymmetric());
  EXPECT_EQ(g.AdjacencyMatrix().nnz(), 0);
}

// ------------------------------------------------------------- Patterns --

TEST(PatternTest, NameFormatting) {
  EXPECT_EQ((DirectedPattern{{Hop::kOut}}).Name(), "A");
  EXPECT_EQ((DirectedPattern{{Hop::kIn}}).Name(), "AT");
  EXPECT_EQ((DirectedPattern{{Hop::kOut, Hop::kIn}}).Name(), "A*AT");
}

TEST(PatternTest, EnumerationSizesFollowPaperRule) {
  // k = 2^1 + ... + 2^N (Sec. IV-B).
  EXPECT_EQ(EnumeratePatterns(1).size(), 2u);
  EXPECT_EQ(EnumeratePatterns(2).size(), 6u);
  EXPECT_EQ(EnumeratePatterns(3).size(), 14u);
  EXPECT_EQ(EnumeratePatterns(4).size(), 30u);
}

TEST(PatternTest, EnumerationIsShortestFirstAndDistinct) {
  const auto patterns = EnumeratePatterns(3);
  for (size_t i = 1; i < patterns.size(); ++i) {
    EXPECT_LE(patterns[i - 1].order(), patterns[i].order());
    for (size_t j = 0; j < i; ++j) {
      EXPECT_FALSE(patterns[i] == patterns[j]);
    }
  }
}

TEST(PatternTest, SecondOrderPatternsAreTheFourProducts) {
  const auto patterns = SecondOrderPatterns();
  ASSERT_EQ(patterns.size(), 4u);
  EXPECT_EQ(patterns[0].Name(), "A*A");
  EXPECT_EQ(patterns[1].Name(), "AT*AT");
  EXPECT_EQ(patterns[2].Name(), "A*AT");
  EXPECT_EQ(patterns[3].Name(), "AT*A");
}

TEST(PatternTest, ApplyMatchesDenseOperatorProduct) {
  Digraph g = ToyCycle();
  PatternSet patterns(g.AdjacencyMatrix(), /*conv_r=*/0.5,
                      /*self_loops=*/true);
  Rng rng(1);
  Matrix x = Matrix::RandomNormal(3, 4, &rng);
  const Matrix a = patterns.normalized_out().ToDense();
  const Matrix at = patterns.normalized_in().ToDense();
  // A*AT word applied to x must equal (A @ Aᵀnorm) @ x.
  DirectedPattern p{{Hop::kOut, Hop::kIn}};
  EXPECT_TRUE(
      AllClose(patterns.Apply(p, x), MatMul(a, MatMul(at, x)), 1e-4f));
  // AT*A word: (ATnorm @ Anorm) @ x.
  DirectedPattern q{{Hop::kIn, Hop::kOut}};
  EXPECT_TRUE(
      AllClose(patterns.Apply(q, x), MatMul(at, MatMul(a, x)), 1e-4f));
}

TEST(PatternTest, ReachabilityMatchesHandComputedToy) {
  // Fig. 3-style: 0 -> 1, 2 -> 1 (co-target through node 1).
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {2, 1}});
  // A*AT: u and v reachable iff they share an out-neighbor.
  const DirectedPattern aat{{Hop::kOut, Hop::kIn}};
  const SparseMatrix reach = oracle::Reachability(g, aat);
  EXPECT_FLOAT_EQ(reach.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(reach.At(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(reach.At(0, 0), 1.0f);  // shares out-neighbor with itself
  EXPECT_FLOAT_EQ(reach.At(0, 1), 0.0f);
  // A*A: two-step forward walks; none exist here.
  const DirectedPattern aa{{Hop::kOut, Hop::kOut}};
  const std::vector<PatternPairCounts> counts =
      std::move(CountPatternPairs(g, {0, 1, 0}, {aat, aa})).value();
  // The streamed counts see the pairs (0,2) and (2,0) only.
  EXPECT_EQ(counts[0].connected, 2);
  EXPECT_EQ(counts[0].connected_same, 2);
  EXPECT_EQ(counts[1].connected, 0);
  EXPECT_EQ(counts[0].pairs, 6);
}

TEST(PatternTest, ReachabilityOnCycleWrapsAround) {
  // 0 -> 1 -> 2 -> 0: A*A reaches two steps ahead.
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {1, 2}, {2, 0}});
  const DirectedPattern aa{{Hop::kOut, Hop::kOut}};
  const SparseMatrix reach = oracle::Reachability(g, aa);
  EXPECT_FLOAT_EQ(reach.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(reach.At(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(reach.At(2, 1), 1.0f);
  EXPECT_EQ(reach.nnz(), 3);
  // With labels {0, 1, 0} only the pair (0, 2) shares a label.
  const PatternPairCounts counts =
      std::move(CountPatternPairs(g, {0, 1, 0}, {aa})).value()[0];
  EXPECT_EQ(counts.connected, 3);
  EXPECT_EQ(counts.connected_same, 1);
}

TEST(PatternTest, UndirectedGraphDegeneratesGracefully) {
  // On a symmetric graph, A and AT reachabilities coincide.
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}, {1, 0}, {1, 2}, {2, 1},
                                       {2, 3}, {3, 2}});
  const DirectedPattern out{{Hop::kOut}};
  const DirectedPattern in{{Hop::kIn}};
  EXPECT_TRUE(AllClose(oracle::Reachability(g, out).ToDense(),
                       oracle::Reachability(g, in).ToDense()));
  const std::vector<PatternPairCounts> counts =
      std::move(CountPatternPairs(g, {0, 0, 1, 1}, {out, in})).value();
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0].connected, 6);
}

}  // namespace
}  // namespace adpa
