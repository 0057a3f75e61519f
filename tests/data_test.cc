// Tests for datasets, splits, the DSBM generator, the benchmark registry,
// and the sparsity injectors.

#include <cmath>
#include <set>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/data/generators.h"
#include "src/data/sparsity.h"
#include "src/data/splits.h"
#include "src/metrics/homophily.h"

namespace adpa {
namespace {

Dataset SmallDataset(uint64_t seed = 1) {
  DsbmConfig config;
  config.num_nodes = 200;
  config.num_classes = 4;
  config.avg_out_degree = 5.0;
  config.class_transition = HomophilousTransition(4, 0.7);
  config.feature_dim = 8;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed);
  Split split = std::move(
      SplitFractions(ds.labels, ds.num_classes, 0.5, 0.25, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

// ----------------------------------------------------------------- Splits --

TEST(SplitTest, PerClassCounts) {
  std::vector<int64_t> labels;
  for (int i = 0; i < 120; ++i) labels.push_back(i % 3);
  Rng rng(1);
  Split split =
      std::move(SplitPerClass(labels, 3, 10, 30, 0, &rng)).value();
  EXPECT_EQ(split.train.size(), 30u);
  EXPECT_EQ(split.val.size(), 30u);
  EXPECT_EQ(split.test.size(), 60u);
  // Exactly 10 training nodes per class.
  std::vector<int> per_class(3, 0);
  for (int64_t i : split.train) ++per_class[labels[i]];
  for (int count : per_class) EXPECT_EQ(count, 10);
}

TEST(SplitTest, PerClassFailsOnTinyClass) {
  std::vector<int64_t> labels = {0, 0, 0, 1};
  Rng rng(2);
  EXPECT_FALSE(SplitPerClass(labels, 2, 5, 0, 0, &rng).ok());
}

TEST(SplitTest, SplitsAreDisjointAndCoverNoDuplicates) {
  std::vector<int64_t> labels;
  for (int i = 0; i < 200; ++i) labels.push_back(i % 5);
  Rng rng(3);
  Split split =
      std::move(SplitFractions(labels, 5, 0.48, 0.32, &rng)).value();
  std::set<int64_t> seen;
  for (const auto* part : {&split.train, &split.val, &split.test}) {
    for (int64_t i : *part) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), 200u);
  EXPECT_NEAR(static_cast<double>(split.train.size()), 96.0, 5.0);
  EXPECT_NEAR(static_cast<double>(split.val.size()), 64.0, 5.0);
}

TEST(SplitTest, FractionsStratifyEveryClassIntoTrain) {
  std::vector<int64_t> labels;
  for (int i = 0; i < 50; ++i) labels.push_back(i < 45 ? 0 : 1);
  Rng rng(4);
  Split split =
      std::move(SplitFractions(labels, 2, 0.4, 0.2, &rng)).value();
  bool has_minority = false;
  for (int64_t i : split.train) has_minority |= labels[i] == 1;
  EXPECT_TRUE(has_minority);
}

TEST(SplitTest, InvalidFractionsRejected) {
  std::vector<int64_t> labels = {0, 1, 0, 1};
  Rng rng(5);
  EXPECT_FALSE(SplitFractions(labels, 2, 0.8, 0.3, &rng).ok());
  EXPECT_FALSE(SplitFractions(labels, 2, 0.0, 0.3, &rng).ok());
}

TEST(SplitTest, SeedsAreReproducible) {
  std::vector<int64_t> labels;
  for (int i = 0; i < 100; ++i) labels.push_back(i % 4);
  Rng rng1(7), rng2(7);
  Split a = std::move(SplitFractions(labels, 4, 0.5, 0.25, &rng1)).value();
  Split b = std::move(SplitFractions(labels, 4, 0.5, 0.25, &rng2)).value();
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
}

// -------------------------------------------------------------- Generator --

TEST(GeneratorTest, RejectsBadConfigs) {
  DsbmConfig config;
  config.num_classes = 1;
  EXPECT_FALSE(GenerateDsbm(config).ok());
  config = DsbmConfig();
  config.class_transition = Matrix(2, 2);  // wrong shape vs 5 classes
  EXPECT_FALSE(GenerateDsbm(config).ok());
}

TEST(GeneratorTest, BalancedLabels) {
  Dataset ds = SmallDataset();
  std::vector<int> counts(4, 0);
  for (int64_t label : ds.labels) ++counts[label];
  for (int count : counts) EXPECT_EQ(count, 50);
}

TEST(GeneratorTest, EdgeCountNearTarget) {
  Dataset ds = SmallDataset();
  // target 200*5 = 1000 pre-dedup edges; dedup loses a few.
  EXPECT_GT(ds.num_edges(), 800);
  EXPECT_LE(ds.num_edges(), 1000);
}

TEST(GeneratorTest, DeterministicForSeed) {
  Dataset a = SmallDataset(9);
  Dataset b = SmallDataset(9);
  EXPECT_EQ(a.graph.edges(), b.graph.edges());
  EXPECT_TRUE(AllClose(a.features, b.features));
  EXPECT_EQ(a.labels, b.labels);
}

TEST(GeneratorTest, ReciprocalProbControlsSymmetry) {
  DsbmConfig config;
  config.num_nodes = 300;
  config.num_classes = 3;
  config.avg_out_degree = 6.0;
  config.class_transition = HomophilousTransition(3, 0.7);
  config.feature_dim = 4;
  config.seed = 21;
  config.reciprocal_prob = 0.0;
  Dataset loose = std::move(GenerateDsbm(config)).value();
  config.reciprocal_prob = 1.0;
  Dataset tight = std::move(GenerateDsbm(config)).value();
  EXPECT_LT(loose.graph.ReciprocityRatio(), 0.2);
  EXPECT_DOUBLE_EQ(tight.graph.ReciprocityRatio(), 1.0);
}

TEST(GeneratorTest, FeatureNoiseControlsClassSeparation) {
  auto class_mean_distance = [](const Dataset& ds) {
    Matrix mean0(1, ds.feature_dim());
    Matrix mean1(1, ds.feature_dim());
    int n0 = 0, n1 = 0;
    for (int64_t i = 0; i < ds.num_nodes(); ++i) {
      if (ds.labels[i] == 0) {
        for (int64_t c = 0; c < ds.feature_dim(); ++c) {
          mean0.At(0, c) += ds.features.At(i, c);
        }
        ++n0;
      } else if (ds.labels[i] == 1) {
        for (int64_t c = 0; c < ds.feature_dim(); ++c) {
          mean1.At(0, c) += ds.features.At(i, c);
        }
        ++n1;
      }
    }
    mean0.ScaleInPlace(1.0f / n0);
    mean1.ScaleInPlace(1.0f / n1);
    return Sub(mean0, mean1).FrobeniusNorm();
  };
  DsbmConfig config;
  config.num_nodes = 400;
  config.num_classes = 2;
  config.avg_out_degree = 3.0;
  config.class_transition = HomophilousTransition(2, 0.7);
  config.feature_dim = 16;
  config.seed = 33;
  config.feature_noise = 0.1;
  Dataset crisp = std::move(GenerateDsbm(config)).value();
  // Class means are the same draw (same seed); separation estimate is only
  // degraded by within-class noise, so crisp >= noisy estimate distance...
  // Directly: per-node deviation from own class mean grows with noise.
  config.feature_noise = 5.0;
  Dataset noisy = std::move(GenerateDsbm(config)).value();
  EXPECT_NEAR(class_mean_distance(crisp), class_mean_distance(noisy), 2.0);
  // Variance check instead: average distance of a node to its class mean.
  auto scatter = [](const Dataset& ds) {
    double total = 0.0;
    Matrix mean(2, ds.feature_dim());
    std::vector<int> counts(2, 0);
    for (int64_t i = 0; i < ds.num_nodes(); ++i) {
      for (int64_t c = 0; c < ds.feature_dim(); ++c) {
        mean.At(ds.labels[i], c) += ds.features.At(i, c);
      }
      counts[ds.labels[i]]++;
    }
    for (int64_t k = 0; k < 2; ++k) {
      for (int64_t c = 0; c < ds.feature_dim(); ++c) {
        mean.At(k, c) /= counts[k];
      }
    }
    for (int64_t i = 0; i < ds.num_nodes(); ++i) {
      for (int64_t c = 0; c < ds.feature_dim(); ++c) {
        const double d = ds.features.At(i, c) - mean.At(ds.labels[i], c);
        total += d * d;
      }
    }
    return total / ds.num_nodes();
  };
  EXPECT_GT(scatter(noisy), 10.0 * scatter(crisp));
}

TEST(GeneratorTest, TransitionMatrixShapesEdgeDistribution) {
  DsbmConfig config;
  config.num_nodes = 600;
  config.num_classes = 3;
  config.avg_out_degree = 8.0;
  config.class_transition = CyclicTransition(3, 1.0, 0.0);
  config.edge_noise = 0.0;
  config.feature_dim = 4;
  config.seed = 8;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  // Every edge goes from class c to class (c+1) % 3.
  for (const Edge& e : ds.graph.edges()) {
    EXPECT_EQ(ds.labels[e.dst], (ds.labels[e.src] + 1) % 3);
  }
}

// --------------------------------------------------------------- Registry --

TEST(RegistryTest, HasAllFourteenDatasets) {
  EXPECT_EQ(BenchmarkSuite().size(), 14u);
  EXPECT_TRUE(FindBenchmark("CoraML").ok());
  EXPECT_TRUE(FindBenchmark("AmazonRating").ok());
  EXPECT_FALSE(FindBenchmark("NotADataset").ok());
}

TEST(RegistryTest, BuildValidatesAndSplits) {
  Dataset ds = std::move(BuildBenchmarkByName("CiteSeer", 0)).value();
  EXPECT_TRUE(ds.Validate().ok());
  EXPECT_EQ(ds.name, "CiteSeer");
  EXPECT_EQ(ds.train_idx.size(), 120u);  // 20 per class x 6 classes
  EXPECT_EQ(ds.val_idx.size(), 300u);
}

TEST(RegistryTest, ScaleShrinksNodeCount) {
  Dataset full = std::move(BuildBenchmarkByName("CoraML", 0)).value();
  Dataset half = std::move(BuildBenchmarkByName("CoraML", 0, 0.5)).value();
  EXPECT_EQ(half.num_nodes(), full.num_nodes() / 2);
}

TEST(RegistryTest, ScaleMustBeFiniteAndWithinTheNodeLimit) {
  // 1e6 would give Texas 183M nodes, past DatasetLimits::max_nodes (50M):
  // refused before anything is sized from it.
  for (const double scale : {std::nan(""), HUGE_VAL, 1e6}) {
    const Result<Dataset> ds = BuildBenchmarkByName("Texas", 0, scale);
    ASSERT_FALSE(ds.ok()) << scale;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument) << scale;
    EXPECT_NE(ds.status().message().find("scale"), std::string::npos)
        << ds.status().ToString();
  }
}

TEST(RegistryTest, SeedsChangeTheGraph) {
  Dataset a = std::move(BuildBenchmarkByName("Texas", 0)).value();
  Dataset b = std::move(BuildBenchmarkByName("Texas", 1)).value();
  EXPECT_NE(a.graph.edges(), b.graph.edges());
}

TEST(RegistryTest, HomophilyMatchesDeclaredRegime) {
  for (const BenchmarkSpec& spec : BenchmarkSuite()) {
    Dataset ds = std::move(BuildBenchmark(spec, 0, 0.5)).value();
    const double h = EdgeHomophily(ds.graph, ds.labels);
    if (spec.homophilous) {
      EXPECT_GT(h, 0.5) << spec.name;
    } else {
      EXPECT_LT(h, 0.5) << spec.name;
    }
  }
}

// --------------------------------------------------------------- Sparsity --

TEST(SparsityTest, MaskFeaturesZeroesOnlyNonTrainRows) {
  Dataset ds = SmallDataset();
  Rng rng(41);
  Dataset masked = std::move(MaskFeatures(ds, 0.5, &rng)).value();
  std::unordered_set<int64_t> train(ds.train_idx.begin(), ds.train_idx.end());
  int64_t zero_rows = 0;
  for (int64_t i = 0; i < masked.num_nodes(); ++i) {
    bool all_zero = true;
    for (int64_t c = 0; c < masked.feature_dim(); ++c) {
      all_zero &= masked.features.At(i, c) == 0.0f;
    }
    if (all_zero) {
      EXPECT_EQ(train.count(i), 0u) << "train row " << i << " was masked";
      ++zero_rows;
    }
  }
  const int64_t non_train = ds.num_nodes() - ds.train_idx.size();
  EXPECT_NEAR(static_cast<double>(zero_rows),
              0.5 * static_cast<double>(non_train), 3.0);
}

TEST(SparsityTest, DropEdgesRemovesRequestedFraction) {
  Dataset ds = SmallDataset();
  Rng rng(42);
  Dataset dropped = std::move(DropEdges(ds, 0.4, &rng)).value();
  EXPECT_NEAR(static_cast<double>(dropped.num_edges()),
              0.6 * static_cast<double>(ds.num_edges()), 1.0);
  // Remaining edges are a subset of the original edge set.
  for (const Edge& e : dropped.graph.edges()) {
    EXPECT_TRUE(ds.graph.HasEdge(e.src, e.dst));
  }
}

TEST(SparsityTest, ReduceTrainLabelsKeepsPerClassBudget) {
  Dataset ds = SmallDataset();
  Rng rng(43);
  Dataset reduced = std::move(ReduceTrainLabels(ds, 5, &rng)).value();
  std::vector<int> per_class(ds.num_classes, 0);
  for (int64_t i : reduced.train_idx) ++per_class[reduced.labels[i]];
  for (int count : per_class) EXPECT_LE(count, 5);
  EXPECT_TRUE(reduced.Validate().ok());
  // Dropped train nodes moved to test: totals conserved.
  EXPECT_EQ(reduced.train_idx.size() + reduced.val_idx.size() +
                reduced.test_idx.size(),
            ds.train_idx.size() + ds.val_idx.size() + ds.test_idx.size());
}

TEST(SparsityTest, FractionValidation) {
  Dataset ds = SmallDataset();
  Rng rng(44);
  EXPECT_FALSE(MaskFeatures(ds, 1.0, &rng).ok());
  EXPECT_FALSE(DropEdges(ds, -0.1, &rng).ok());
  EXPECT_FALSE(ReduceTrainLabels(ds, 0, &rng).ok());
}

// ---------------------------------------------------------------- Dataset --

TEST(DatasetTest, ValidateCatchesOverlappingSplits) {
  Dataset ds = SmallDataset();
  EXPECT_TRUE(ds.Validate().ok());
  ds.val_idx.push_back(ds.train_idx[0]);
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesBadLabels) {
  Dataset ds = SmallDataset();
  ds.labels[0] = 99;
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, WithUndirectedGraphKeepsEverythingElse) {
  Dataset ds = SmallDataset();
  Dataset u = ds.WithUndirectedGraph();
  EXPECT_TRUE(u.graph.IsSymmetric());
  EXPECT_TRUE(AllClose(u.features, ds.features));
  EXPECT_EQ(u.labels, ds.labels);
  EXPECT_EQ(u.train_idx, ds.train_idx);
}

}  // namespace
}  // namespace adpa
