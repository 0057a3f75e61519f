#include "src/tensor/gradcheck.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/core/random.h"
#include "src/graph/sparse_matrix.h"

namespace adpa {
namespace ag {

namespace {

Matrix RandomInput(int64_t rows, int64_t cols, uint64_t seed,
                   float stddev = 0.7f) {
  Rng rng(seed);
  return Matrix::RandomNormal(rows, cols, &rng, 0.0f, stddev);
}

/// Fixed random ± weighting used to contract a non-scalar op output to the
/// scalar the finite differences probe. Entries are bounded away from zero
/// so every output element participates in the loss.
Matrix LossWeights(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix w(rows, cols);
  for (int64_t i = 0; i < w.size(); ++i) {
    const double magnitude = rng.Uniform(0.5, 1.5);
    w.data()[i] = static_cast<float>(rng.Bernoulli(0.5) ? -magnitude
                                                        : magnitude);
  }
  return w;
}

}  // namespace

Matrix AwayFromZero(Matrix m, float margin) {
  m.ApplyFn([margin](float v) {
    return v < 0.0f ? v - margin : v + margin;
  });
  return m;
}

std::string GradcheckReport::Summary() const {
  std::ostringstream out;
  out << "gradcheck[" << name << "]: " << (ok ? "OK" : "FAIL") << ", "
      << entries_checked << " entries, max rel error " << max_rel_error;
  if (!worst.empty()) out << " (" << worst << ")";
  return out.str();
}

GradcheckReport CheckGradients(const std::string& name, const LossFn& loss,
                               const std::vector<Variable>& params,
                               const GradcheckOptions& options) {
  GradcheckReport report;
  report.name = name;

  Variable scalar = loss();
  if (scalar.rows() != 1 || scalar.cols() != 1) {
    report.worst = "loss is not 1x1";
    return report;
  }
  for (Variable param : params) param.ZeroGrad();  // copies alias the node
  Backward(scalar);

  report.ok = true;
  Rng sampler(options.seed ^ 0x517CC1B727220A95ULL);
  for (size_t k = 0; k < params.size(); ++k) {
    // Copy the analytic gradient before finite differences dirty anything.
    const Matrix analytic = params[k].grad();
    if (analytic.empty()) {
      report.ok = false;
      report.worst = "param " + std::to_string(k) + " received no gradient";
      continue;
    }
    Variable param = params[k];
    Matrix* value = param.mutable_value();

    std::vector<int64_t> entries;
    if (options.max_entries_per_input > 0 &&
        value->size() > options.max_entries_per_input) {
      entries = sampler.SampleWithoutReplacement(
          value->size(), options.max_entries_per_input);
      std::sort(entries.begin(), entries.end());
    } else {
      entries.resize(value->size());
      for (int64_t i = 0; i < value->size(); ++i) entries[i] = i;
    }

    for (int64_t i : entries) {
      const float original = value->data()[i];
      const double h =
          options.step * std::max(1.0, std::fabs(static_cast<double>(original)));
      // The probe points are rounded to float32 (the engine's precision);
      // the quotient uses the *realized* spacing, in double.
      const float up_x = static_cast<float>(original + h);
      const float down_x = static_cast<float>(original - h);
      value->data()[i] = up_x;
      const double up = static_cast<double>(loss().value().At(0, 0));
      value->data()[i] = down_x;
      const double down = static_cast<double>(loss().value().At(0, 0));
      value->data()[i] = original;
      const double spacing =
          static_cast<double>(up_x) - static_cast<double>(down_x);
      const double numeric = (up - down) / spacing;
      const double analytic_i = static_cast<double>(analytic.data()[i]);
      const double denom =
          std::max({1.0, std::fabs(analytic_i), std::fabs(numeric)});
      const double rel_error = std::fabs(analytic_i - numeric) / denom;
      ++report.entries_checked;
      if (rel_error > report.max_rel_error) {
        report.max_rel_error = rel_error;
        std::ostringstream where;
        where << "param " << k << " entry " << i << ": analytic "
              << analytic_i << " vs numeric " << numeric;
        report.worst = where.str();
      }
    }
  }
  report.ok = report.ok && report.max_rel_error <= options.tolerance;
  return report;
}

GradcheckReport RunGradcheck(const GradcheckCase& c) {
  std::vector<Variable> params;
  params.reserve(c.inputs.size());
  for (const Matrix& input : c.inputs) params.push_back(Parameter(input));

  // Shape the loss weighting after a probe forward pass.
  Variable probe = c.forward(params);
  const Matrix weights =
      LossWeights(probe.rows(), probe.cols(), c.options.seed);
  auto loss = [&c, &params, &weights]() {
    return SumAll(Mul(c.forward(params), Constant(weights)));
  };
  return CheckGradients(c.name, loss, params, c.options);
}

std::vector<GradcheckCase> OpGradcheckRegistry() {
  // A case's position is its test parameter (tests/gradcheck_test.cc), so
  // new cases go at the end and a deleted case's slot is refilled from the
  // end: the surviving cases keep their test names.
  std::vector<GradcheckCase> cases;
  auto add = [&cases](const char* name, std::vector<Matrix> inputs,
                      std::function<Variable(const std::vector<Variable>&)>
                          forward) -> GradcheckCase& {
    GradcheckCase c;
    c.name = name;
    c.inputs = std::move(inputs);
    c.forward = std::move(forward);
    cases.push_back(std::move(c));
    return cases.back();
  };

  // Leaves. Parameter is checked directly; Constant is checked by mixing a
  // constant into a differentiable graph (its own gradient must not exist
  // and must not perturb the parameter's).
  add("Parameter", {RandomInput(3, 4, 101)},
      [](const std::vector<Variable>& in) { return in[0]; });
  {
    const Matrix offset = RandomInput(3, 4, 102);
    add("Constant", {RandomInput(3, 4, 103)},
        [offset](const std::vector<Variable>& in) {
          return Add(in[0], Constant(offset));
        });
  }

  // Elementwise binary ops.
  add("Add", {RandomInput(3, 4, 111), RandomInput(3, 4, 112)},
      [](const std::vector<Variable>& in) { return Add(in[0], in[1]); });
  add("Sub", {RandomInput(3, 4, 113), RandomInput(3, 4, 114)},
      [](const std::vector<Variable>& in) { return Sub(in[0], in[1]); });
  add("Mul", {RandomInput(3, 4, 115), RandomInput(3, 4, 116)},
      [](const std::vector<Variable>& in) { return Mul(in[0], in[1]); });
  add("Scale", {RandomInput(3, 4, 117)},
      [](const std::vector<Variable>& in) { return Scale(in[0], 1.7f); });

  // Matrix products.
  add("MatMul", {RandomInput(3, 4, 121), RandomInput(4, 5, 122)},
      [](const std::vector<Variable>& in) { return MatMul(in[0], in[1]); });
  add("MatMulTransposeA", {RandomInput(4, 3, 123), RandomInput(4, 5, 124)},
      [](const std::vector<Variable>& in) {
        return MatMulTransposeA(in[0], in[1]);
      });
  add("AddBias", {RandomInput(3, 4, 125), RandomInput(1, 4, 126)},
      [](const std::vector<Variable>& in) { return AddBias(in[0], in[1]); });
  {
    // A fixed 4x3 sparse operator with an empty row and an empty column,
    // so the Aᵀ-side of the backward is exercised on irregular structure.
    const SparseMatrix op = SparseMatrix::FromTriplets(
        4, 3,
        {{0, 0, 0.8f}, {0, 2, -1.2f}, {1, 1, 0.5f}, {3, 0, 1.5f},
         {3, 1, -0.4f}});
    add("SpMM", {RandomInput(3, 5, 127)},
        [op](const std::vector<Variable>& in) { return SpMM(op, in[0]); });
  }

  // Activations and the two reductions. Relu's input is pushed away from
  // the kink at 0 by 0.3 — far beyond the 1e-2-scaled step — so central
  // differences never straddle the non-smooth point.
  add("Relu", {AwayFromZero(RandomInput(3, 4, 131), 0.3f)},
      [](const std::vector<Variable>& in) { return Relu(in[0]); });
  add("SumAll", {RandomInput(3, 4, 153)},
      [](const std::vector<Variable>& in) { return SumAll(in[0]); });
  add("Sigmoid", {RandomInput(3, 4, 133)},
      [](const std::vector<Variable>& in) { return Sigmoid(in[0]); });
  {
    const std::vector<int64_t> labels = {0, 1, 2, 3, 1};
    const std::vector<int64_t> mask_indices = {0, 2, 4};
    add("MaskedCrossEntropy", {RandomInput(5, 4, 154)},
        [labels, mask_indices](const std::vector<Variable>& in) {
          return MaskedCrossEntropy(in[0], labels, mask_indices);
        });
  }

  // Dropout via the mask-freezing trick: a fresh Rng with a fixed seed is
  // constructed inside the forward closure, so every finite-difference
  // probe re-samples the identical mask (see gradcheck.h).
  add("Dropout", {RandomInput(3, 4, 135)},
      [](const std::vector<Variable>& in) {
        Rng mask_rng(0xD80);
        return Dropout(in[0], 0.4f, /*training=*/true, &mask_rng);
      });
  {
    Rng mask_rng(0xD81);
    const Matrix mask = DropoutMask(3, 4, 0.4f, &mask_rng);
    add("DropoutWithMask", {RandomInput(3, 4, 136)},
        [mask](const std::vector<Variable>& in) {
          return DropoutWithMask(in[0], mask);
        });
  }

  // Structural ops.
  add("ConcatCols", {RandomInput(3, 2, 141), RandomInput(3, 3, 142)},
      [](const std::vector<Variable>& in) {
        return ConcatCols({in[0], in[1]});
      });
  add("SliceCols", {RandomInput(3, 5, 143)},
      [](const std::vector<Variable>& in) {
        return SliceCols(in[0], 1, 4);
      });
  add("ScaleRows", {RandomInput(4, 3, 144), RandomInput(4, 1, 145)},
      [](const std::vector<Variable>& in) {
        return ScaleRows(in[0], in[1]);
      });
  add("ScaleScalar", {RandomInput(3, 4, 146), RandomInput(1, 1, 147)},
      [](const std::vector<Variable>& in) {
        return ScaleScalar(in[0], in[1]);
      });

  // Row-wise normalization.
  add("SoftmaxRows", {RandomInput(3, 5, 151)},
      [](const std::vector<Variable>& in) { return SoftmaxRows(in[0]); });

  // Row gather. It comes last so the cases above keep their registry
  // indices. Row 2 is gathered twice and row 1 never, so the scatter-add
  // backward must sum one row's two gradients and leave another row at zero.
  add("GatherRows", {RandomInput(4, 3, 148)},
      [](const std::vector<Variable>& in) {
        return GatherRows(in[0], {2, 0, 2, 3});
      });

  return cases;
}

}  // namespace ag
}  // namespace adpa
