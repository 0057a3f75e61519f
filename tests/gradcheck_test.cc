// Universal gradcheck: every autograd op is verified against central finite
// differences through the src/tensor/gradcheck.h harness, and the composed
// checks (two-layer MLP with attention, full ADPA) pin the op *interactions*
// — chain rule across MatMul/SpMM/attention — not just the leaves.
//
// tools/lint.py (rule `gradcheck-registry`) enforces that every
// Variable-returning op declared in src/tensor/autograd.h has a registry
// entry, so this suite cannot silently fall behind the op set.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/graph/sparse_matrix.h"
#include "src/models/adpa.h"
#include "src/tensor/gradcheck.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

using ag::CheckGradients;
using ag::GradcheckCase;
using ag::GradcheckOptions;
using ag::GradcheckReport;
using ag::OpGradcheckRegistry;
using ag::RunGradcheck;
using ag::Variable;

// Every registry case must pass at its per-op tolerance. One test per op
// would be nicer for reporting, but a value-parameterized suite over the
// registry achieves the same failure granularity.
class OpGradcheckTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OpGradcheckTest, AnalyticMatchesCentralDifferences) {
  const std::vector<GradcheckCase> cases = OpGradcheckRegistry();
  ASSERT_LT(GetParam(), cases.size());
  const GradcheckCase& c = cases[GetParam()];
  const GradcheckReport report = RunGradcheck(c);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GT(report.entries_checked, 0) << report.Summary();
}

std::string OpName(const ::testing::TestParamInfo<size_t>& info) {
  return OpGradcheckRegistry()[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradcheckTest,
                         ::testing::Range<size_t>(
                             0, OpGradcheckRegistry().size()),
                         OpName);

TEST(GradcheckRegistryTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const GradcheckCase& c : OpGradcheckRegistry()) {
    EXPECT_FALSE(c.name.empty());
    EXPECT_TRUE(names.insert(c.name).second)
        << "duplicate registry entry " << c.name;
  }
  // Every op in autograd.h must be present (lint enforces the exact list;
  // this is a cheap lower-bound sanity check that the registry was built).
  EXPECT_GE(names.size(), 23u);
}

TEST(GradcheckHarnessTest, FrozenDropoutMaskIsDeterministic) {
  // The mask-freezing trick underpinning the Dropout registry entry: a
  // fresh fixed-seed Rng inside the forward closure must reproduce the
  // identical graph output across calls.
  Rng rng(5);
  Variable x = ag::Parameter(Matrix::RandomNormal(4, 6, &rng));
  auto forward = [&x]() {
    Rng mask_rng(0xD80);
    return ag::Dropout(x, 0.4f, /*training=*/true, &mask_rng);
  };
  const Matrix first = forward().value();
  const Matrix second = forward().value();
  EXPECT_TRUE(AllClose(first, second, 0.0f));
}

TEST(GradcheckHarnessTest, DetectsAWrongGradientImmediately) {
  // Sanity-check the checker itself. A correct op can never trip it (the
  // analytic and numeric passes share the closure), so we emulate a buggy
  // backward by making the closure inconsistent across calls: the first
  // call — the one CheckGradients differentiates — computes sum(x)
  // (analytic grad 1), every FD probe afterwards computes sum(2x)
  // (difference quotient 2).
  Rng rng(7);
  Variable p = ag::Parameter(Matrix::RandomNormal(3, 3, &rng));
  int calls = 0;
  auto loss = [&]() {
    ++calls;
    return calls == 1 ? ag::SumAll(p) : ag::SumAll(ag::Scale(p, 2.0f));
  };
  const GradcheckReport report =
      CheckGradients("deliberate-mismatch", loss, {p});
  EXPECT_FALSE(report.ok) << report.Summary();
  EXPECT_GT(report.max_rel_error, 0.3) << report.Summary();
}

// Composed regression anchor (satellite of the verification layer): a
// two-layer MLP with node-wise attention over a sparse propagation step,
// touching MatMul/AddBias/Relu/SpMM/SoftmaxRows/SliceCols/ScaleRows/Add/
// MaskedCrossEntropy in one graph. All ops pass individually; this pins
// their composition.
TEST(ComposedGradcheckTest, TwoLayerMlpWithAttention) {
  Rng rng(11);
  const int64_t n = 6, in_dim = 5, hidden = 4, classes = 3;
  const Matrix x_value = Matrix::RandomNormal(n, in_dim, &rng, 0.0f, 0.8f);
  const SparseMatrix adj = SparseMatrix::FromTriplets(
      n, n,
      {{0, 1, 0.7f}, {1, 2, 0.5f}, {2, 0, 0.4f}, {3, 4, 0.9f},
       {4, 5, 0.6f}, {5, 3, 0.8f}, {0, 3, 0.3f}});
  const std::vector<int64_t> labels = {0, 1, 2, 0, 1, 2};
  const std::vector<int64_t> mask = {0, 2, 3, 5};

  Variable w1 = ag::Parameter(Matrix::RandomNormal(in_dim, hidden, &rng,
                                                   0.0f, 0.5f));
  Variable b1 = ag::Parameter(Matrix::RandomNormal(1, hidden, &rng, 0.0f,
                                                   0.2f));
  Variable wa = ag::Parameter(Matrix::RandomNormal(hidden, 2, &rng, 0.0f,
                                                   0.5f));
  Variable w2 = ag::Parameter(Matrix::RandomNormal(hidden, classes, &rng,
                                                   0.0f, 0.5f));
  Variable b2 = ag::Parameter(Matrix::RandomNormal(1, classes, &rng, 0.0f,
                                                   0.2f));

  auto loss = [&]() {
    Variable x = ag::Constant(x_value);
    Variable h = ag::Relu(ag::AddBias(ag::MatMul(x, w1), b1));
    // Node-wise two-way attention between the ego and propagated views.
    Variable scores = ag::SoftmaxRows(ag::MatMul(h, wa));
    Variable ego = ag::ScaleRows(h, ag::SliceCols(scores, 0, 1));
    Variable prop = ag::ScaleRows(ag::SpMM(adj, h),
                                  ag::SliceCols(scores, 1, 2));
    Variable fused = ag::Add(ego, prop);
    Variable logits = ag::AddBias(ag::MatMul(fused, w2), b2);
    return ag::MaskedCrossEntropy(logits, labels, mask);
  };

  const GradcheckReport report =
      CheckGradients("TwoLayerMlpWithAttention", loss, {w1, b1, wa, w2, b2});
  EXPECT_TRUE(report.ok) << report.Summary();
}

// End-to-end: one full ADPA forward pass (DP-guided propagation + DP
// attention + hop attention + MLP classifier) against finite differences,
// for every Eq. 10 variant, the uniform-average ablation, and K = 1. Every
// parameter must receive a gradient, so a weight the forward never reads
// fails here. Entries are sampled per parameter to keep the quadratic FD
// cost bounded; the tolerance is looser than the per-op ones because
// float32 error compounds across the deep composition.
TEST(ComposedGradcheckTest, FullAdpaForwardPass) {
  DsbmConfig config;
  config.num_nodes = 24;
  config.num_classes = 3;
  config.avg_out_degree = 3.0;
  config.class_transition = CyclicTransition(3, 0.7, 0.1);
  config.feature_dim = 6;
  config.seed = 21;
  Result<Dataset> generated = GenerateDsbm(config);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  Dataset dataset = std::move(generated).value();
  Rng split_rng(22);
  Result<Split> split = SplitFractions(dataset.labels, dataset.num_classes,
                                       0.5, 0.25, &split_rng);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  dataset.train_idx = split->train;
  dataset.val_idx = split->val;
  dataset.test_idx = split->test;

  struct Case {
    const char* name;
    DpAttention variant;
    bool dp_attention;
    int steps;
  };
  for (const Case& c :
       {Case{"Original", DpAttention::kOriginal, true, 2},
        Case{"Gate", DpAttention::kGate, true, 2},
        Case{"Recursive", DpAttention::kRecursive, true, 2},
        Case{"JK", DpAttention::kJk, true, 2},
        Case{"UniformDpAverage", DpAttention::kOriginal, false, 2},
        Case{"OriginalK1", DpAttention::kOriginal, true, 1}}) {
    SCOPED_TRACE(c.name);
    ModelConfig model_config;
    model_config.hidden = 8;
    model_config.num_layers = 2;
    model_config.dropout = 0.0f;  // eval-mode forward is dropout-free anyway
    model_config.propagation_steps = c.steps;
    model_config.pattern_order = 1;
    model_config.dp_attention = c.variant;
    model_config.use_dp_attention = c.dp_attention;
    Rng model_rng(23);
    AdpaModel model(dataset, model_config, &model_rng);

    Rng forward_rng(24);
    auto loss = [&]() {
      ag::Variable logits = model.Forward(/*training=*/false, &forward_rng);
      return ag::MaskedCrossEntropy(logits, dataset.labels,
                                    dataset.train_idx);
    };

    GradcheckOptions options;
    options.tolerance = 5e-2;
    options.max_entries_per_input = 6;
    options.seed = 25;
    const GradcheckReport report =
        CheckGradients(std::string("FullAdpaForwardPass/") + c.name, loss,
                       model.Parameters(), options);
    EXPECT_TRUE(report.ok) << report.Summary();
    EXPECT_GT(report.entries_checked, 0);
  }
}

}  // namespace
}  // namespace adpa
