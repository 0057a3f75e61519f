#pragma once
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/tensor/autograd.h"
#include "src/tensor/matrix.h"

namespace adpa {
namespace ag {

/// Universal finite-difference gradient checking.
///
/// Every backward closure in src/tensor/autograd.cc is hand-written, and a
/// sign / transpose / scaling slip there degrades results *silently* — the
/// model still trains, just toward the wrong optimum (the Aᵀ-vs-A failure
/// mode of directed propagation). This harness verifies each closure
/// against central differences of the forward math:
///
///     dL/dx_i  ≈  (L(x_i + h) − L(x_i − h)) / (2h)
///
/// The forward pass runs in the engine's native float32; the difference
/// quotient itself is formed in double so the comparison adds no rounding
/// of its own. The step is scaled per entry (h = step · max(1, |x|)) and
/// errors are *relative*: |analytic − numeric| / max(1, |analytic|,
/// |numeric|), compared against a per-op tolerance.
///
/// Mask-freezing trick (stochastic ops): Dropout draws its mask from an
/// explicitly seeded Rng, so a registry entry makes the op deterministic by
/// constructing a fresh `Rng(fixed_seed)` *inside* the forward closure —
/// every finite-difference evaluation then re-samples the identical mask.
/// Equivalently, precompute the mask once with `DropoutMask` and apply it
/// via `DropoutWithMask`; the registry checks both paths.
///
/// Non-smooth points: Relu kinks at 0, where the two-sided quotient
/// straddles the kink and disagrees with either one-sided derivative. Its
/// registry input is pushed away from zero by a margin larger than the
/// step (see AwayFromZero).
struct GradcheckOptions {
  /// Maximum allowed relative error over all checked entries.
  double tolerance = 2e-2;
  /// Base finite-difference step (scaled by max(1, |x|) per entry).
  double step = 1e-2;
  /// If > 0, check at most this many entries per input (sampled
  /// deterministically from `seed`); 0 checks every entry. Use for
  /// composed whole-model checks where exhaustive FD is O(params²).
  int64_t max_entries_per_input = 0;
  /// Seeds the loss-weighting matrix and the entry sampler.
  uint64_t seed = 0x5eedf00dULL;
};

struct GradcheckReport {
  std::string name;
  bool ok = false;
  double max_rel_error = 0.0;
  int64_t entries_checked = 0;
  /// Where the largest error occurred (or why the check failed outright).
  std::string worst;

  std::string Summary() const;
};

/// Rebuilds the loss (1x1, differentiable) from the *current* values of
/// the captured leaf parameters; called once per finite-difference probe.
using LossFn = std::function<Variable()>;

/// Core driver: checks d(loss)/d(param) for every entry (or a sample) of
/// every param against central differences. `loss` must rebuild the graph
/// on each call and be deterministic given the parameter values (freeze
/// dropout masks as documented above).
GradcheckReport CheckGradients(const std::string& name, const LossFn& loss,
                               const std::vector<Variable>& params,
                               const GradcheckOptions& options = {});

/// One registry entry: an op under test, exercised through a forward
/// builder over fresh Parameters of the given input values. The output may
/// be any shape; the harness contracts it to a scalar with a fixed random
/// weighting (loss = Σ W ⊙ out) so gradients are direction-dependent.
struct GradcheckCase {
  std::string name;  ///< must match the autograd.h declaration (lint rule)
  std::vector<Matrix> inputs;
  std::function<Variable(const std::vector<Variable>& inputs)> forward;
  GradcheckOptions options;
};

/// Runs one registry case end to end.
GradcheckReport RunGradcheck(const GradcheckCase& c);

/// The op registry: one case per Variable-returning op declared in
/// src/tensor/autograd.h. tools/lint.py (rule `gradcheck-registry`)
/// cross-references the two files, so declaring a new op without adding a
/// case here fails `ctest -R lint`.
std::vector<GradcheckCase> OpGradcheckRegistry();

/// Shifts every entry of `m` away from zero by `margin` (sign-preserving,
/// sign(0) treated as +). Used to keep Relu inputs off their non-smooth
/// point by more than the finite-difference step.
Matrix AwayFromZero(Matrix m, float margin);

}  // namespace ag
}  // namespace adpa
