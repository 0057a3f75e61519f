// Tests for graph algorithms: components and degree statistics.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/graph/algorithms.h"

namespace adpa {
namespace {

TEST(WccTest, TwoIslands) {
  Digraph g = Digraph::CreateOrDie(5, {{0, 1}, {1, 2}, {3, 4}});
  ComponentLabeling wcc = WeaklyConnectedComponents(g);
  EXPECT_EQ(wcc.num_components, 2);
  EXPECT_EQ(wcc.component_of[0], wcc.component_of[2]);
  EXPECT_EQ(wcc.component_of[3], wcc.component_of[4]);
  EXPECT_NE(wcc.component_of[0], wcc.component_of[3]);
}

TEST(WccTest, DirectionIsIgnored) {
  // 0 -> 1 <- 2: weakly connected even though 0 cannot reach 2.
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {2, 1}});
  EXPECT_EQ(WeaklyConnectedComponents(g).num_components, 1);
}

TEST(WccTest, IsolatedNodesAreSingletons) {
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}});
  EXPECT_EQ(WeaklyConnectedComponents(g).num_components, 3);
}

TEST(SccTest, CycleIsOneComponent) {
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(StronglyConnectedComponents(g).num_components, 1);
}

TEST(SccTest, ChainIsAllSingletons) {
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}, {1, 2}, {2, 3}});
  ComponentLabeling scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 4);
}

TEST(SccTest, MixedGraph) {
  // SCC {0,1,2} (cycle), singleton {3}, SCC {4,5}.
  Digraph g = Digraph::CreateOrDie(
      6, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 4}});
  ComponentLabeling scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 3);
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[0], scc.component_of[2]);
  EXPECT_EQ(scc.component_of[4], scc.component_of[5]);
  EXPECT_NE(scc.component_of[0], scc.component_of[3]);
  EXPECT_NE(scc.component_of[3], scc.component_of[4]);
}

TEST(SccTest, SccRefinesWcc) {
  DsbmConfig config;
  config.num_nodes = 300;
  config.num_classes = 3;
  config.avg_out_degree = 3.0;
  config.class_transition = HomophilousTransition(3, 0.6);
  config.feature_dim = 4;
  config.seed = 5;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  ComponentLabeling wcc = WeaklyConnectedComponents(ds.graph);
  ComponentLabeling scc = StronglyConnectedComponents(ds.graph);
  EXPECT_GE(scc.num_components, wcc.num_components);
  // Nodes in the same SCC must share a WCC.
  for (int64_t u = 0; u < ds.num_nodes(); ++u) {
    for (int64_t v : ds.graph.OutNeighbors(u)) {
      if (scc.component_of[u] == scc.component_of[v]) {
        EXPECT_EQ(wcc.component_of[u], wcc.component_of[v]);
      }
    }
  }
}

TEST(DegreeStatsTest, HandComputed) {
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}, {0, 2}, {1, 2}});
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_DOUBLE_EQ(stats.mean_out, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(stats.max_out, 2.0);
  EXPECT_DOUBLE_EQ(stats.mean_in, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(stats.max_in, 2.0);
  EXPECT_EQ(stats.sources, 2);  // nodes 0 and 3
  EXPECT_EQ(stats.sinks, 2);    // nodes 2 and 3
}

TEST(DegreeStatsTest, GeneratorMatchesConfiguredDegree) {
  DsbmConfig config;
  config.num_nodes = 500;
  config.num_classes = 4;
  config.avg_out_degree = 7.0;
  config.class_transition = HomophilousTransition(4, 0.7);
  config.feature_dim = 4;
  config.seed = 9;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  const DegreeStats stats = ComputeDegreeStats(ds.graph);
  EXPECT_NEAR(stats.mean_out, 7.0, 0.5);  // dedup removes a few edges
}

}  // namespace
}  // namespace adpa
