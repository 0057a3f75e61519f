// Tests for the extension surface: grid search, extended baselines
// (H2GCN / APPNP / GraphSAGE), label propagation, and the Sec. IV-B
// correlation-guided DP selection.

#include <gtest/gtest.h>

#include "src/amud/amud.h"
#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/models/extended.h"
#include "src/models/factory.h"
#include "src/models/label_propagation.h"
#include "src/train/grid_search.h"
#include "src/train/trainer.h"
#include "tests/pattern_oracle.h"

namespace adpa {
namespace {

Dataset SmallTask(uint64_t seed = 2, double in_class = 0.8) {
  DsbmConfig config;
  config.num_nodes = 150;
  config.num_classes = 3;
  config.avg_out_degree = 5.0;
  config.class_transition = HomophilousTransition(3, in_class);
  config.feature_dim = 10;
  config.feature_noise = 1.2;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed);
  Split split =
      std::move(SplitFractions(ds.labels, 3, 0.5, 0.25, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

// ------------------------------------------------------------ GridSearch --

TEST(GridSearchTest, EvaluatesFullGrid) {
  Dataset ds = SmallTask();
  GridSearchSpace space;
  space.learning_rates = {0.01f, 0.001f};
  space.dropouts = {0.2f, 0.5f};
  TrainConfig tc;
  tc.max_epochs = 20;
  tc.patience = 10;
  Result<GridSearchResult> result =
      GridSearch("SGC", ds, ModelConfig(), tc, space);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trials.size(), 4u);
  for (const GridTrial& trial : result->trials) {
    EXPECT_LE(trial.val_accuracy, result->best.val_accuracy);
  }
}

TEST(GridSearchTest, EmptyAxesFallBackToBaseConfig) {
  Dataset ds = SmallTask();
  GridSearchSpace space;
  space.learning_rates = {};  // keep the train config's rate
  space.dropouts = {};  // keep base dropout
  ModelConfig base;
  base.dropout = 0.33f;
  TrainConfig tc;
  tc.max_epochs = 10;
  tc.learning_rate = 0.003f;
  Result<GridSearchResult> result = GridSearch("SGC", ds, base, tc, space);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trials.size(), 1u);
  EXPECT_FLOAT_EQ(result->trials[0].model_config.dropout, 0.33f);
  EXPECT_FLOAT_EQ(result->trials[0].learning_rate, 0.003f);
}

TEST(GridSearchTest, PropagatesUnknownModel) {
  Dataset ds = SmallTask();
  Result<GridSearchResult> result =
      GridSearch("Nope", ds, ModelConfig(), TrainConfig(), GridSearchSpace());
  EXPECT_FALSE(result.ok());
}

TEST(GridSearchTest, IsDeterministic) {
  Dataset ds = SmallTask();
  GridSearchSpace space;
  space.learning_rates = {0.01f};
  space.dropouts = {0.4f};
  TrainConfig tc;
  tc.max_epochs = 15;
  Result<GridSearchResult> a = GridSearch("GCN", ds, ModelConfig(), tc, space);
  Result<GridSearchResult> b = GridSearch("GCN", ds, ModelConfig(), tc, space);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->best.val_accuracy, b->best.val_accuracy);
  EXPECT_DOUBLE_EQ(a->best.test_accuracy, b->best.test_accuracy);
}

TEST(GridSearchTest, AllZeroGridReturnsFirstTrial) {
  // With no epochs every trial scores 0; the winner must still be a real
  // trial (the first), not a default-constructed one.
  Dataset ds = SmallTask();
  GridSearchSpace space;
  space.learning_rates = {0.05f, 0.02f};
  space.dropouts = {};
  ModelConfig base;
  base.dropout = 0.37f;
  TrainConfig tc;
  tc.max_epochs = 0;
  Result<GridSearchResult> result = GridSearch("SGC", ds, base, tc, space);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->trials.size(), 2u);
  EXPECT_EQ(result->best.val_accuracy, 0.0);
  EXPECT_FLOAT_EQ(result->best.learning_rate, 0.05f);
  EXPECT_FLOAT_EQ(result->best.model_config.dropout, 0.37f);
}

TEST(GridSearchTest, RejectsSnapshotAndResumeFields) {
  Dataset ds = SmallTask();
  GridSearchSpace space;
  space.learning_rates = {0.01f};
  space.dropouts = {0.5f};
  TrainConfig every;
  every.checkpoint_every = 2;
  TrainConfig path;
  path.checkpoint_path = "grid.snapshot";
  TrainConfig resume;
  resume.resume_from = "grid.snapshot";
  for (const TrainConfig& tc : {every, path, resume}) {
    Result<GridSearchResult> result =
        GridSearch("SGC", ds, ModelConfig(), tc, space);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GridSearchTest, SharedAdpaPropagationMatchesPerTrialModels) {
  // ADPA sweeps select and propagate once at the largest K; every trial
  // must still equal a standalone CreateModel + TrainModel run with the
  // documented per-trial seed, at any pool width.
  Dataset ds = SmallTask(6, 0.6);
  ModelConfig base;
  base.hidden = 16;
  base.select_patterns = 2;
  GridSearchSpace space;
  space.learning_rates = {0.02f};
  space.dropouts = {0.2f, 0.6f};
  space.propagation_steps = {1, 2, 3};
  TrainConfig tc;
  tc.max_epochs = 12;
  tc.patience = 0;
  const uint64_t seed = 9;

  std::vector<GridSearchResult> runs;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    Result<GridSearchResult> result =
        GridSearch("ADPA", ds, base, tc, space, seed);
    ASSERT_TRUE(result.ok());
    runs.push_back(std::move(*result));
  }
  SetNumThreads(0);

  const std::vector<GridTrial>& trials = runs[0].trials;
  ASSERT_EQ(trials.size(), 6u);
  for (size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].model_config.propagation_steps,
              space.propagation_steps[i % 3]);
    EXPECT_EQ(trials[i].val_accuracy, runs[1].trials[i].val_accuracy);
    EXPECT_EQ(trials[i].test_accuracy, runs[1].trials[i].test_accuracy);

    Rng rng(seed * 1000003 + i * 7919 + 13);
    Result<ModelPtr> model =
        CreateModel("ADPA", ds, trials[i].model_config, &rng);
    ASSERT_TRUE(model.ok());
    TrainConfig trial_tc = tc;
    trial_tc.learning_rate = trials[i].learning_rate;
    const TrainResult alone = TrainModel(model->get(), ds, trial_tc, &rng);
    EXPECT_EQ(trials[i].val_accuracy, alone.best_val_accuracy) << i;
    EXPECT_EQ(trials[i].test_accuracy, alone.test_accuracy) << i;
  }
}

// -------------------------------------------------------- Extended models --

class ExtendedModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtendedModelTest, TrainsAboveChance) {
  Dataset ds = SmallTask().WithUndirectedGraph();
  Rng rng(4);
  ModelConfig config;
  config.hidden = 16;
  Result<ModelPtr> model = CreateModel(GetParam(), ds, config, &rng);
  ASSERT_TRUE(model.ok());
  TrainConfig tc;
  tc.max_epochs = 60;
  tc.patience = 30;
  const TrainResult result = TrainModel(model->get(), ds, tc, &rng);
  EXPECT_GT(result.test_accuracy, 0.6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Extensions, ExtendedModelTest,
                         ::testing::ValuesIn(ExtendedModelNames()));

TEST(ExtendedModelTest, H2GcnBeatsGcnUnderHeterophily) {
  // The design motivation: ego/neighbor separation and 2-hop neighborhoods
  // rescue accuracy when 1-hop neighbors are mostly cross-class.
  DsbmConfig config;
  config.num_nodes = 400;
  config.num_classes = 4;
  config.avg_out_degree = 6.0;
  config.class_transition = SymmetricHeterophilousTransition(4, 0.05);
  config.reciprocal_prob = 1.0;
  config.feature_dim = 16;
  config.feature_noise = 2.5;
  config.seed = 11;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng srng(11);
  Split split =
      std::move(SplitFractions(ds.labels, 4, 0.5, 0.25, &srng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;

  auto run = [&](const char* name) {
    double total = 0.0;
    for (uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      ModelPtr model =
          std::move(CreateModel(name, ds, ModelConfig(), &rng)).value();
      TrainConfig tc;
      tc.max_epochs = 80;
      tc.patience = 20;
      total += TrainModel(model.get(), ds, tc, &rng).test_accuracy;
    }
    return total / 3.0;
  };
  EXPECT_GT(run("H2GCN"), run("GCN"));
}

// ------------------------------------------------------ Label propagation --

TEST(LabelPropagationTest, PerfectOnHomophilousClusters) {
  // Two disjoint same-label triangles with one labeled node each.
  Dataset ds;
  ds.graph = Digraph::CreateOrDie(
      6, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {0, 2},
          {3, 4}, {4, 3}, {4, 5}, {5, 4}, {5, 3}, {3, 5}});
  ds.features = Matrix(6, 1);
  ds.labels = {0, 0, 0, 1, 1, 1};
  ds.num_classes = 2;
  ds.train_idx = {0, 3};
  ds.test_idx = {1, 2, 4, 5};
  const LabelPropagationResult result = PropagateLabels(ds, 10, 0.1f);
  EXPECT_EQ(result.predictions, ds.labels);
  EXPECT_DOUBLE_EQ(LabelPropagationAccuracy(ds), 1.0);
}

TEST(LabelPropagationTest, TrainRowsStayClamped) {
  Dataset ds = SmallTask();
  const LabelPropagationResult result = PropagateLabels(ds, 5, 0.2f);
  for (int64_t i : ds.train_idx) {
    EXPECT_EQ(result.predictions[i], ds.labels[i]);
  }
}

TEST(LabelPropagationTest, StrongOnHomophilyWeakOnRandomTopology) {
  Dataset homophilous = SmallTask(7, 0.85);
  Dataset random = SmallTask(7, 1.0 / 3.0);  // uniform transition
  const double acc_homophilous =
      LabelPropagationAccuracy(homophilous.WithUndirectedGraph());
  const double acc_random =
      LabelPropagationAccuracy(random.WithUndirectedGraph());
  EXPECT_GT(acc_homophilous, 0.7);
  EXPECT_GT(acc_homophilous, acc_random + 0.2);
}

// ----------------------------------------------------------- DP selection --

TEST(DpSelectionTest, MaskedCorrelationMatchesFullOnCompleteMask) {
  Dataset ds = SmallTask(9);
  std::vector<int64_t> all_nodes;
  for (int64_t i = 0; i < ds.num_nodes(); ++i) all_nodes.push_back(i);
  const std::vector<DirectedPattern> patterns = EnumeratePatterns(2);
  const std::vector<PatternPairCounts> masked =
      std::move(CountPatternPairs(ds.graph, ds.labels, patterns, &all_nodes))
          .value();
  const std::vector<PatternPairCounts> full =
      std::move(CountPatternPairs(ds.graph, ds.labels, patterns)).value();
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(masked[i], full[i]) << patterns[i].Name();
  }
}

TEST(DpSelectionTest, PicksHomophilousPatternsOnCyclicGraph) {
  // On a cyclic class progression, A*AT and AT*A are the label-aligned
  // operators; selection with keep=2 must surface them.
  DsbmConfig config;
  config.num_nodes = 400;
  config.num_classes = 5;
  config.avg_out_degree = 6.0;
  config.class_transition = CyclicTransition(5, 0.85, 0.05);
  config.feature_dim = 4;
  config.seed = 13;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(13);
  Split split =
      std::move(SplitFractions(ds.labels, 5, 0.5, 0.25, &rng)).value();
  Result<std::vector<DirectedPattern>> selected =
      SelectPatternsByCorrelation(ds.graph, ds.labels, split.train,
                                  /*max_order=*/2, /*keep=*/2);
  ASSERT_TRUE(selected.ok());
  ASSERT_EQ(selected->size(), 2u);
  for (const DirectedPattern& p : *selected) {
    EXPECT_TRUE(p.Name() == "A*AT" || p.Name() == "AT*A") << p.Name();
  }
}

TEST(DpSelectionTest, ValidatesArguments) {
  Dataset ds = SmallTask(15);
  EXPECT_FALSE(SelectPatternsByCorrelation(ds.graph, ds.labels,
                                           ds.train_idx, 0, 2).ok());
  EXPECT_FALSE(SelectPatternsByCorrelation(ds.graph, ds.labels,
                                           ds.train_idx, 2, 0).ok());
  EXPECT_FALSE(
      SelectPatternsByCorrelation(ds.graph, ds.labels, {0}, 2, 2).ok());
  // Bad inputs are errors, not aborts or out-of-bounds writes.
  const std::vector<int64_t> short_labels(ds.labels.begin(),
                                          ds.labels.end() - 1);
  EXPECT_EQ(SelectPatternsByCorrelation(ds.graph, short_labels, ds.train_idx,
                                        2, 2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SelectPatternsByCorrelation(ds.graph, ds.labels,
                                        {0, ds.num_nodes()}, 2, 2)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      SelectPatternsByCorrelation(ds.graph, ds.labels, {3, 5, 3}, 2, 2)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  std::vector<int64_t> negative = ds.labels;
  negative[ds.train_idx[0]] = -1;
  EXPECT_EQ(SelectPatternsByCorrelation(ds.graph, negative, ds.train_idx, 2,
                                        2)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(DpSelectionTest, AdpaWithSelectionStillTrains) {
  Dataset ds = SmallTask(17);
  Rng rng(17);
  ModelConfig config;
  config.hidden = 16;
  config.select_patterns = 3;
  ModelPtr model = std::move(CreateModel("ADPA", ds, config, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 50;
  tc.patience = 25;
  EXPECT_GT(TrainModel(model.get(), ds, tc, &rng).test_accuracy, 0.5);
}

}  // namespace
}  // namespace adpa
