// Tests for the autograd tape analyzer (src/tensor/tape_analysis.h):
// healthy graphs report clean, hand-wired broken nodes produce specific
// violations, cycles are detected, detached parameters are flagged as
// dead, and the trainer surfaces dead parameters via verify_tape.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/tensor/autograd.h"
#include "src/tensor/tape_analysis.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

using ag::AnalyzeTape;
using ag::Node;
using ag::TapeReport;
using ag::Variable;

bool AnyViolationContains(const TapeReport& report, const std::string& text) {
  for (const std::string& violation : report.violations) {
    if (violation.find(text) != std::string::npos) return true;
  }
  return false;
}

Variable SmallMlpLoss(const Variable& x, const Variable& w1,
                      const Variable& b1, const Variable& w2) {
  Variable hidden = ag::Relu(ag::AddBias(ag::MatMul(x, w1), b1));
  Variable logits = ag::MatMul(hidden, w2);
  return ag::MaskedCrossEntropy(logits, {0, 1, 0, 1}, {0, 1, 2, 3});
}

TEST(TapeAnalysisTest, HealthyGraphReportsClean) {
  Rng rng(3);
  Variable x = ag::Constant(Matrix::RandomNormal(4, 5, &rng));
  Variable w1 = ag::Parameter(Matrix::RandomNormal(5, 6, &rng));
  Variable b1 = ag::Parameter(Matrix::RandomNormal(1, 6, &rng));
  Variable w2 = ag::Parameter(Matrix::RandomNormal(6, 2, &rng));
  Variable loss = SmallMlpLoss(x, w1, b1, w2);

  const TapeReport report = AnalyzeTape(loss, {w1, b1, w2});
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(report.dead_params.empty()) << report.Summary();
  // x, w1, b1, w2 are the leaves; MatMul/AddBias/Relu/MatMul/MCE the ops.
  EXPECT_EQ(report.num_leaves, 4);
  EXPECT_EQ(report.num_nodes, 9);
  EXPECT_GE(report.num_edges, 8);
}

TEST(TapeAnalysisTest, AnalysisIsReadOnlyForBackward) {
  // Running the analyzer must not disturb the tape: Backward afterwards
  // still produces gradients.
  Rng rng(4);
  Variable w = ag::Parameter(Matrix::RandomNormal(3, 3, &rng));
  Variable loss = ag::SumAll(ag::Mul(w, w));
  const TapeReport report = AnalyzeTape(loss, {w});
  ASSERT_TRUE(report.ok()) << report.Summary();
  ag::Backward(loss);
  ASSERT_FALSE(w.grad().empty());
  EXPECT_TRUE(AllClose(w.grad(), Scale(w.value(), 2.0f), 1e-6f));
}

TEST(TapeAnalysisTest, FlagsDetachedParameter) {
  // The acceptance scenario: a parameter constructed but never wired into
  // the loss must be reported dead (it would silently never train).
  Rng rng(5);
  Variable x = ag::Constant(Matrix::RandomNormal(4, 5, &rng));
  Variable used = ag::Parameter(Matrix::RandomNormal(5, 2, &rng));
  Variable detached = ag::Parameter(Matrix::RandomNormal(5, 2, &rng));
  Variable loss = ag::SumAll(ag::MatMul(x, used));

  const TapeReport report = AnalyzeTape(loss, {used, detached});
  EXPECT_TRUE(report.ok()) << report.Summary();
  ASSERT_EQ(report.dead_params.size(), 1u) << report.Summary();
  EXPECT_EQ(report.dead_params[0], 1);
  EXPECT_NE(report.Summary().find("dead parameter: index 1"),
            std::string::npos);
}

TEST(TapeAnalysisTest, UndefinedParameterIsDead) {
  Rng rng(6);
  Variable w = ag::Parameter(Matrix::RandomNormal(2, 2, &rng));
  Variable loss = ag::SumAll(w);
  const TapeReport report = AnalyzeTape(loss, {w, Variable()});
  ASSERT_EQ(report.dead_params.size(), 1u) << report.Summary();
  EXPECT_EQ(report.dead_params[0], 1);
}

TEST(TapeAnalysisTest, MissingBackwardClosureIsAViolation) {
  // Hand-wire the exact corruption the analyzer exists to catch: an op
  // node that says requires_grad but has no backward closure. Backward
  // would silently drop every gradient flowing through it.
  Variable parent = ag::Parameter(Matrix(2, 2));
  auto broken = std::make_shared<Node>();
  broken->value = Matrix(2, 2);
  broken->op = "Add";
  broken->parents = {parent.node(), parent.node()};
  broken->requires_grad = true;  // but no backward closure

  const TapeReport report = AnalyzeTape(Variable(broken));
  EXPECT_FALSE(report.ok()) << report.Summary();
  EXPECT_TRUE(
      AnyViolationContains(report, "requires_grad set but backward is empty"))
      << report.Summary();
}

TEST(TapeAnalysisTest, OpShapeRuleCatchesMismatchedOperands) {
  // An "Add" whose operands disagree with its output shape.
  Variable a = ag::Constant(Matrix(2, 3));
  Variable b = ag::Constant(Matrix(2, 2));
  auto broken = std::make_shared<Node>();
  broken->value = Matrix(2, 3);
  broken->op = "Add";
  broken->parents = {a.node(), b.node()};

  const TapeReport report = AnalyzeTape(Variable(broken));
  EXPECT_FALSE(report.ok()) << report.Summary();
  EXPECT_TRUE(AnyViolationContains(report, "differs from output"))
      << report.Summary();
}

TEST(TapeAnalysisTest, GatherRowsRuleCatchesMalformedGathers) {
  // A gather may change the row count (and repeat rows) but keeps its one
  // input's columns.
  Variable a = ag::Parameter(Matrix(4, 3));
  const TapeReport healthy = AnalyzeTape(ag::GatherRows(a, {3, 0, 3}));
  EXPECT_TRUE(healthy.ok()) << healthy.Summary();

  // Hand-wired over a constant, so the shape rule is the only one broken.
  Variable x = ag::Constant(Matrix(4, 3));
  auto wider = std::make_shared<Node>();
  wider->value = Matrix(2, 5);
  wider->op = "GatherRows";
  wider->parents = {x.node()};
  const TapeReport wide = AnalyzeTape(Variable(wider));
  EXPECT_FALSE(wide.ok()) << wide.Summary();
  EXPECT_TRUE(AnyViolationContains(wide, "gathered 5 columns from input 4x3"))
      << wide.Summary();

  auto binary = std::make_shared<Node>();
  binary->value = Matrix(2, 3);
  binary->op = "GatherRows";
  binary->parents = {x.node(), x.node()};
  const TapeReport two_parents = AnalyzeTape(Variable(binary));
  EXPECT_FALSE(two_parents.ok()) << two_parents.Summary();
  EXPECT_TRUE(AnyViolationContains(two_parents, "expected 1 parent(s), has 2"))
      << two_parents.Summary();
}

TEST(TapeAnalysisTest, StaleGradShapeIsAViolation) {
  Variable parent = ag::Parameter(Matrix(3, 3));
  auto broken = std::make_shared<Node>();
  broken->value = Matrix(3, 3);
  broken->grad = Matrix(2, 2);  // stale shape from a reused node
  broken->op = "Relu";
  broken->parents = {parent.node()};
  broken->requires_grad = true;
  broken->backward = [](const Matrix&) {};

  const TapeReport report = AnalyzeTape(Variable(broken));
  EXPECT_FALSE(report.ok()) << report.Summary();
  EXPECT_TRUE(AnyViolationContains(report, "accumulated gradient is 2x2"))
      << report.Summary();
}

TEST(TapeAnalysisTest, NullParentIsAViolationNotACrash) {
  auto broken = std::make_shared<Node>();
  broken->value = Matrix(1, 1);
  broken->op = "SumAll";
  broken->parents = {nullptr};

  const TapeReport report = AnalyzeTape(Variable(broken));
  EXPECT_FALSE(report.ok()) << report.Summary();
  EXPECT_TRUE(AnyViolationContains(report, "null parent pointer"))
      << report.Summary();
}

TEST(TapeAnalysisTest, ParentCycleIsDetected) {
  // Impossible through the public op constructors, but a future in-place
  // op could wire one; Backward's DFS would never terminate on it.
  auto a = std::make_shared<Node>();
  auto b = std::make_shared<Node>();
  a->value = Matrix(1, 1);
  b->value = Matrix(1, 1);
  a->op = "Scale";
  b->op = "Scale";
  a->parents = {b};
  b->parents = {a};

  const TapeReport report = AnalyzeTape(Variable(a));
  EXPECT_TRUE(AnyViolationContains(report, "parent cycle detected"))
      << report.Summary();

  // The hand-built cycle is also a shared_ptr reference cycle; break it so
  // the nodes free and LeakSanitizer stays quiet.
  a->parents.clear();
  b->parents.clear();
}

TEST(TapeAnalysisTest, UnknownOpTagOnlyNeedsParents) {
  // Forward-compat: an op added after the analyzer was written must not
  // hard-fail the audit as long as it is structurally sound.
  Variable parent = ag::Constant(Matrix(2, 2));
  auto future = std::make_shared<Node>();
  future->value = Matrix(5, 7);  // arbitrary shape change
  future->op = "SomeFutureOp";
  future->parents = {parent.node()};

  const TapeReport report = AnalyzeTape(Variable(future));
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Minimal model with a deliberately detached parameter, for the trainer
// integration below.
class LeakyLinearModel : public Model {
 public:
  LeakyLinearModel(const Dataset& dataset, Rng* rng)
      : features_(ag::Constant(dataset.features)),
        weight_(ag::Parameter(Matrix::RandomNormal(
            dataset.feature_dim(), dataset.num_classes, rng, 0.0f, 0.3f))),
        forgotten_(ag::Parameter(Matrix::RandomNormal(4, 4, rng))) {}

  ag::Variable Forward(bool /*training*/, Rng* /*rng*/) override {
    return ag::MatMul(features_, weight_);  // forgotten_ never contributes
  }
  std::vector<ag::Variable> Parameters() const override {
    return {weight_, forgotten_};
  }
  std::string name() const override { return "leaky-linear"; }

 private:
  ag::Variable features_;
  ag::Variable weight_;
  ag::Variable forgotten_;
};

TEST(TapeAnalysisTest, TrainerVerifyTapeReportsDeadParameters) {
  DsbmConfig config;
  config.num_nodes = 30;
  config.num_classes = 3;
  config.class_transition = HomophilousTransition(3, 0.8);
  config.feature_dim = 5;
  config.seed = 31;
  Result<Dataset> generated = GenerateDsbm(config);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  Dataset dataset = std::move(generated).value();
  Rng split_rng(32);
  Result<Split> split = SplitFractions(dataset.labels, dataset.num_classes,
                                       0.5, 0.25, &split_rng);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  dataset.train_idx = split->train;
  dataset.val_idx = split->val;
  dataset.test_idx = split->test;

  Rng rng(33);
  LeakyLinearModel model(dataset, &rng);
  TrainConfig train_config;
  train_config.max_epochs = 3;
  train_config.patience = 0;
  train_config.verify_tape = true;
  const TrainResult result = TrainModel(&model, dataset, train_config, &rng);
  EXPECT_EQ(result.dead_parameters, 1);
  EXPECT_EQ(result.epochs_run, 3);
}

}  // namespace
}  // namespace adpa
