// Trainer and experiment-harness semantics.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/tensor/optimizer.h"
#include "src/tensor/simd.h"
#include "src/train/experiment.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

Dataset EasyTask(uint64_t seed = 1) {
  DsbmConfig config;
  config.num_nodes = 150;
  config.num_classes = 3;
  config.avg_out_degree = 5.0;
  config.class_transition = HomophilousTransition(3, 0.85);
  config.feature_dim = 10;
  config.feature_noise = 0.6;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed + 100);
  Split split =
      std::move(SplitFractions(ds.labels, 3, 0.4, 0.3, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

TEST(AccuracyTest, HandComputed) {
  Matrix logits = Matrix::FromRows({{2, 1}, {0, 3}, {5, 4}});
  const std::vector<int64_t> labels = {0, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1, 2}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {2}), 0.0);
}

TEST(TrainerTest, EarlyStoppingCutsEpochs) {
  Dataset ds = EasyTask();
  Rng rng(2);
  ModelConfig mc;
  mc.hidden = 16;
  ModelPtr model = std::move(CreateModel("SGC", ds, mc, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 500;
  tc.patience = 5;
  const TrainResult result = TrainModel(model.get(), ds, tc, &rng);
  EXPECT_LT(result.epochs_run, 500);
  EXPECT_GE(result.epochs_run, result.best_epoch + 1);
}

TEST(TrainerTest, PatienceZeroDisablesEarlyStopping) {
  Dataset ds = EasyTask();
  Rng rng(3);
  ModelConfig mc;
  mc.hidden = 8;
  ModelPtr model = std::move(CreateModel("SGC", ds, mc, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 25;
  tc.patience = 0;
  const TrainResult result = TrainModel(model.get(), ds, tc, &rng);
  EXPECT_EQ(result.epochs_run, 25);
}

TEST(TrainerTest, CurvesRecordedWhenRequested) {
  Dataset ds = EasyTask();
  Rng rng(4);
  ModelConfig mc;
  mc.hidden = 8;
  ModelPtr model = std::move(CreateModel("GCN", ds, mc, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 10;
  tc.patience = 0;
  tc.record_curves = true;
  const TrainResult result = TrainModel(model.get(), ds, tc, &rng);
  EXPECT_EQ(result.val_curve.size(), 10u);
  EXPECT_EQ(result.train_loss_curve.size(), 10u);
  // Loss should drop over 10 epochs on this easy task.
  EXPECT_LT(result.train_loss_curve.back(), result.train_loss_curve.front());
}

TEST(TrainerTest, TestAccuracyTakenAtBestValidationEpoch) {
  Dataset ds = EasyTask();
  Rng rng(5);
  ModelConfig mc;
  mc.hidden = 8;
  ModelPtr model = std::move(CreateModel("GCN", ds, mc, &rng)).value();
  TrainConfig tc;
  tc.max_epochs = 40;
  tc.patience = 0;
  tc.record_curves = true;
  const TrainResult result = TrainModel(model.get(), ds, tc, &rng);
  // best_val_accuracy must equal the max of the recorded curve.
  double max_val = 0.0;
  for (double v : result.val_curve) max_val = std::max(max_val, v);
  EXPECT_DOUBLE_EQ(result.best_val_accuracy, max_val);
}

// Row-subset training against the full-batch loop it replaced. The loop
// below is that epoch body, kept as the oracle: ZeroGrad, Forward(true), the
// loss over train_idx, Backward, Step; then Forward(false), val accuracy,
// and test accuracy when val improves.
struct FullBatchRun {
  std::vector<double> val_curve;
  std::vector<double> train_loss_curve;
  int best_epoch = 0;
  double best_val_accuracy = 0.0;
  double test_accuracy = 0.0;
  AdamState adam;
};

FullBatchRun TrainFullBatch(Model* model, const Dataset& ds,
                            const TrainConfig& config, Rng* rng) {
  Adam optimizer(model->Parameters(), config.learning_rate,
                 config.weight_decay);
  FullBatchRun run;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    optimizer.ZeroGrad();
    ag::Variable logits = model->Forward(/*training=*/true, rng);
    ag::Variable loss =
        ag::MaskedCrossEntropy(logits, ds.labels, ds.train_idx);
    ag::Backward(loss);
    optimizer.Step();
    const Matrix eval = model->Forward(/*training=*/false, rng).value();
    const double val_acc = Accuracy(eval, ds.labels, ds.val_idx);
    run.val_curve.push_back(val_acc);
    run.train_loss_curve.push_back(loss.value().At(0, 0));
    if (val_acc > run.best_val_accuracy) {
      run.best_val_accuracy = val_acc;
      run.best_epoch = epoch;
      run.test_accuracy = Accuracy(eval, ds.labels, ds.test_idx);
    }
  }
  run.adam = optimizer.ExportState();
  return run;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

bool SameMatrices(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameRngState(const RngState& a, const RngState& b) {
  return std::memcmp(a.words, b.words, sizeof(a.words)) == 0 &&
         a.has_cached_normal == b.has_cached_normal &&
         std::memcmp(&a.cached_normal, &b.cached_normal,
                     sizeof(a.cached_normal)) == 0;
}

/// Texas with its train split permuted: the loss then sums in an order that
/// differs from the increasing node order the row-subset step binds in.
Dataset TexasWithUnsortedTrainSplit() {
  Dataset ds = std::move(BuildBenchmarkByName("Texas", 0)).value();
  Rng shuffle(17);
  const std::vector<int64_t> sorted = ds.train_idx;
  while (ds.train_idx == sorted) shuffle.Shuffle(&ds.train_idx);
  return ds;
}

struct ParityCase {
  const char* name;
  const char* model;
  void (*configure)(ModelConfig*);
};

void PrintTo(const ParityCase& parity_case, std::ostream* out) {
  *out << parity_case.name;
}

class RowSubsetParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(RowSubsetParityTest, EqualsTheFullBatchLoopBitForBit) {
  const ParityCase& param = GetParam();
  const Dataset ds = TexasWithUnsortedTrainSplit();
  const std::string snapshot_path = testing::TempDir() + "/row_subset_" +
                                    param.name + "_" +
                                    std::to_string(getpid()) + ".ckpt";
  const simd::Level saved_level = simd::ActiveLevel();
  const int saved_threads = GetNumThreads();
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    for (int threads : {1, 2}) {
      SetNumThreads(threads);
      for (float dropout : {0.5f, 0.0f}) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + ", " +
                     std::to_string(threads) + " thread(s), dropout " +
                     std::to_string(dropout));
        ModelConfig mc;
        mc.hidden = 16;
        mc.dropout = dropout;
        param.configure(&mc);
        TrainConfig tc;
        tc.max_epochs = 3;
        tc.patience = 0;
        tc.record_curves = true;
        tc.checkpoint_every = tc.max_epochs;
        tc.checkpoint_path = snapshot_path;

        Rng init_full(7), init_rows(7);
        ModelPtr full =
            std::move(CreateModel(param.model, ds, mc, &init_full)).value();
        ModelPtr rows =
            std::move(CreateModel(param.model, ds, mc, &init_rows)).value();
        Rng rng_full(11), rng_rows(11);
        const FullBatchRun oracle =
            TrainFullBatch(full.get(), ds, tc, &rng_full);
        Result<TrainResult> trained =
            TrainModelResumable(rows.get(), ds, tc, &rng_rows);
        ASSERT_TRUE(trained.ok()) << trained.status().ToString();
        Result<Checkpoint> snapshot = TryLoadCheckpoint(snapshot_path);
        ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
        ASSERT_TRUE(snapshot->train_state.has_value());
        const TrainState& state = *snapshot->train_state;

        const std::vector<ag::Variable> full_params = full->Parameters();
        const std::vector<ag::Variable> row_params = rows->Parameters();
        ASSERT_EQ(full_params.size(), row_params.size());
        for (size_t i = 0; i < full_params.size(); ++i) {
          EXPECT_TRUE(SameBits(full_params[i].value(), row_params[i].value()))
              << "parameter " << i;
        }
        EXPECT_EQ(state.optimizer_step_count, oracle.adam.step_count);
        EXPECT_TRUE(SameMatrices(state.adam_first_moment,
                                 oracle.adam.first_moment));
        EXPECT_TRUE(SameMatrices(state.adam_second_moment,
                                 oracle.adam.second_moment));
        EXPECT_TRUE(SameRngState(rng_rows.SaveState(), rng_full.SaveState()));
        EXPECT_TRUE(SameRngState(state.rng, rng_full.SaveState()));
        EXPECT_EQ(trained->val_curve, oracle.val_curve);
        EXPECT_EQ(trained->train_loss_curve, oracle.train_loss_curve);
        EXPECT_EQ(trained->best_epoch, oracle.best_epoch);
        EXPECT_EQ(trained->best_val_accuracy, oracle.best_val_accuracy);
        EXPECT_EQ(trained->test_accuracy, oracle.test_accuracy);
      }
    }
  }
  std::remove(snapshot_path.c_str());
  simd::SetLevel(saved_level);
  SetNumThreads(saved_threads);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndVariants, RowSubsetParityTest,
    ::testing::Values(
        ParityCase{"AdpaOriginal", "ADPA", [](ModelConfig*) {}},
        ParityCase{"AdpaGate", "ADPA",
                   [](ModelConfig* mc) {
                     mc->dp_attention = DpAttention::kGate;
                   }},
        ParityCase{"AdpaRecursive", "ADPA",
                   [](ModelConfig* mc) {
                     mc->dp_attention = DpAttention::kRecursive;
                   }},
        ParityCase{"AdpaJk", "ADPA",
                   [](ModelConfig* mc) {
                     mc->dp_attention = DpAttention::kJk;
                   }},
        ParityCase{"AdpaNoDpAttention", "ADPA",
                   [](ModelConfig* mc) { mc->use_dp_attention = false; }},
        ParityCase{"AdpaNoHopAttention", "ADPA",
                   [](ModelConfig* mc) { mc->use_hop_attention = false; }},
        ParityCase{"AdpaOneStep", "ADPA",
                   [](ModelConfig* mc) { mc->propagation_steps = 1; }},
        // The two below train through the default TrainLogits/EvalLogits.
        ParityCase{"Gcn", "GCN", [](ModelConfig*) {}},
        ParityCase{"Mlp", "MLP", [](ModelConfig*) {}}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(info.param.name);
    });

TEST(AggregateTest, MeanAndStd) {
  RepeatedResult r = Aggregate({0.8, 0.9, 1.0});
  EXPECT_NEAR(r.mean, 90.0, 1e-9);
  EXPECT_NEAR(r.stddev, 10.0, 1e-9);
  EXPECT_EQ(r.ToString(), "90.0±10.0");
}

TEST(AggregateTest, SingleRunHasZeroStd) {
  RepeatedResult r = Aggregate({0.5});
  EXPECT_NEAR(r.mean, 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.stddev, 0.0);
}

TEST(ExperimentTest, RunRepeatedAggregatesAcrossSeeds) {
  ModelConfig mc;
  mc.hidden = 8;
  TrainConfig tc;
  tc.max_epochs = 30;
  tc.patience = 10;
  Result<RepeatedResult> result = RunRepeated(
      "SGC", [](uint64_t seed) { return Result<Dataset>(EasyTask(seed)); },
      mc, tc, /*runs=*/3, /*undirect_input=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->accuracies.size(), 3u);
  EXPECT_GT(result->mean, 40.0);  // percent
}

TEST(ExperimentTest, PropagatesBuilderFailure) {
  ModelConfig mc;
  TrainConfig tc;
  Result<RepeatedResult> result = RunRepeated(
      "SGC",
      [](uint64_t) {
        return Result<Dataset>(Status::Internal("builder broke"));
      },
      mc, tc, 2, false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(ExperimentTest, UndirectConventionFollowsModelType) {
  EXPECT_TRUE(ShouldUndirectInput("GCN"));
  EXPECT_TRUE(ShouldUndirectInput("JacobiConv"));
  EXPECT_FALSE(ShouldUndirectInput("MagNet"));
  EXPECT_FALSE(ShouldUndirectInput("ADPA"));
}

}  // namespace
}  // namespace adpa
