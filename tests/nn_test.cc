// Tests for layers, the Glorot initializer and the Adam optimizer.

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/tensor/autograd.h"
#include "src/tensor/nn.h"
#include "src/tensor/optimizer.h"

namespace adpa {
namespace {

TEST(InitTest, GlorotUniformWithinLimit) {
  Rng rng(1);
  Matrix w = nn::GlorotUniform(30, 50, &rng);
  const float limit = std::sqrt(6.0f / 80.0f);
  for (int64_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w.data()[i], -limit);
    EXPECT_LE(w.data()[i], limit);
  }
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(3);
  nn::Linear layer(4, 3, &rng);
  ag::Variable x = ag::Constant(Matrix(5, 4, 1.0f));
  ag::Variable y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  EXPECT_EQ(layer.Parameters().size(), 2u);  // W and b
  nn::Linear no_bias(4, 3, &rng, /*bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(LinearTest, BiasStartsAtZeroSoForwardIsPureMatmul) {
  Rng rng(4);
  nn::Linear layer(3, 2, &rng);
  Matrix x_val = Matrix::FromRows({{1, 0, 0}});
  ag::Variable y = layer.Forward(ag::Constant(x_val));
  // With zero bias, output row equals first row of W.
  const Matrix w = layer.Parameters()[0].value();
  EXPECT_FLOAT_EQ(y.value().At(0, 0), w.At(0, 0));
  EXPECT_FLOAT_EQ(y.value().At(0, 1), w.At(0, 1));
}

TEST(MlpTest, SingleLayerIsLinear) {
  Rng rng(5);
  nn::Mlp mlp(4, 16, 3, /*num_layers=*/1, &rng);
  EXPECT_EQ(mlp.num_layers(), 1);
  ag::Variable y = mlp.Forward(ag::Constant(Matrix(2, 4, 0.5f)), false, nullptr);
  EXPECT_EQ(y.cols(), 3);
}

TEST(MlpTest, DeepShapes) {
  Rng rng(6);
  nn::Mlp mlp(8, 16, 5, /*num_layers=*/3, &rng, 0.2f);
  ag::Variable y =
      mlp.Forward(ag::Constant(Matrix(7, 8, 1.0f)), /*training=*/true, &rng);
  EXPECT_EQ(y.rows(), 7);
  EXPECT_EQ(y.cols(), 5);
  // 3 layers x (W, b).
  EXPECT_EQ(mlp.Parameters().size(), 6u);
}

TEST(MlpTest, EvalForwardIsDeterministic) {
  Rng rng(7);
  nn::Mlp mlp(4, 8, 2, 2, &rng, 0.5f);
  ag::Variable x = ag::Constant(Matrix(3, 4, 1.0f));
  Matrix out1 = mlp.Forward(x, false, nullptr).value();
  Matrix out2 = mlp.Forward(x, false, nullptr).value();
  EXPECT_TRUE(AllClose(out1, out2));
}

// A tiny least-squares problem: fit y = xW* with W* known.
struct Regression {
  Matrix x;
  Matrix y;
  Regression() {
    Rng rng(8);
    x = Matrix::RandomNormal(64, 4, &rng);
    Matrix w_star = Matrix::FromRows(
        {{1.0f, -2.0f}, {0.5f, 0.0f}, {-1.0f, 1.0f}, {2.0f, 0.5f}});
    y = MatMul(x, w_star);
  }
  ag::Variable Loss(const ag::Variable& w) const {
    ag::Variable pred = ag::MatMul(ag::Constant(x), w);
    ag::Variable diff = ag::Sub(pred, ag::Constant(y));
    return ag::Scale(ag::SumAll(ag::Mul(diff, diff)),
                     1.0f / static_cast<float>(x.rows()));
  }
};

TEST(OptimizerTest, AdamConvergesOnLeastSquares) {
  Regression problem;
  Rng rng(10);
  ag::Variable w = ag::Parameter(Matrix::RandomNormal(4, 2, &rng, 0, 0.1f));
  Adam adam({w}, /*learning_rate=*/0.05f);
  float last_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad();
    ag::Variable loss = problem.Loss(w);
    ag::Backward(loss);
    adam.Step();
    last_loss = loss.value().At(0, 0);
  }
  EXPECT_LT(last_loss, 1e-3f);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  // With zero gradient signal, decay must pull weights toward zero. The
  // decayed gradient is w = 1, and Adam's bias-corrected first step moves
  // every weight by exactly the learning rate against its sign.
  ag::Variable w = ag::Parameter(Matrix(3, 3, 1.0f));
  Adam adam({w}, /*learning_rate=*/0.1f, /*weight_decay=*/1.0f);
  w.node()->AccumulateGrad(Matrix(3, 3));  // an explicit zero gradient
  adam.Step();
  EXPECT_NEAR(w.value().At(0, 0), 0.9f, 1e-6f);
}

TEST(OptimizerTest, StepSkipsParametersWithoutGradients) {
  ag::Variable w = ag::Parameter(Matrix(2, 2, 1.0f));
  Adam adam({w}, 0.1f);
  adam.Step();  // no gradient accumulated: value must stay put
  EXPECT_FLOAT_EQ(w.value().At(0, 0), 1.0f);
}

TEST(OptimizerTest, AdamStateIsPerParameter) {
  Regression problem;
  Rng rng(11);
  ag::Variable w1 = ag::Parameter(Matrix::RandomNormal(4, 2, &rng, 0, 0.1f));
  ag::Variable w2 = ag::Parameter(Matrix(4, 2, 0.0f));
  Adam adam({w1, w2}, 0.05f);
  for (int step = 0; step < 50; ++step) {
    adam.ZeroGrad();
    ag::Variable loss = problem.Loss(w1);  // w2 never participates
    ag::Backward(loss);
    adam.Step();
  }
  // w2 had no gradient: untouched.
  EXPECT_TRUE(AllClose(w2.value(), Matrix(4, 2, 0.0f)));
}

}  // namespace
}  // namespace adpa
