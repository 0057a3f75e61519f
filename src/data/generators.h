#pragma once
#include <cstdint>
#include <string>

#include "src/core/status.h"
#include "src/data/dataset.h"
#include "src/tensor/matrix.h"

namespace adpa {

/// Configuration of the directed stochastic block model (DSBM) that stands
/// in for the paper's real benchmark graphs (see DESIGN.md, substitutions).
///
/// Edges are sampled as (source u, target v): the target's class is drawn
/// from `class_transition[y_u]`, so the matrix controls both homophily
/// (diagonal mass) and *directional* structure (asymmetric off-diagonal
/// mass, e.g. a cyclic class progression like the paper's Fig. 3 toy).
/// `reciprocal_prob` is the probability that an edge also gets its reverse:
/// high reciprocity means direction carries no information and AMUD should
/// recommend the undirected transformation.
struct DsbmConfig {
  int64_t num_nodes = 1000;
  int64_t num_classes = 5;
  /// Expected number of generated (pre-dedup) directed edges per node.
  double avg_out_degree = 5.0;
  /// C x C row-normalizable non-negative weights: P(dst class | src class).
  Matrix class_transition;
  /// Probability that an edge ignores the transition matrix and picks a
  /// uniformly random target class (topology noise).
  double edge_noise = 0.05;
  /// Probability that a generated edge u->v also adds v->u.
  double reciprocal_prob = 0.0;
  int64_t feature_dim = 64;
  /// Scale of the per-class feature mean vectors.
  double feature_signal = 1.0;
  /// Within-class feature standard deviation (higher = harder task).
  double feature_noise = 1.0;
  uint64_t seed = 1;
};

/// Homophilous transition: `in_class_prob` mass on the diagonal, the rest
/// uniform. Models citation/co-purchase style graphs.
Matrix HomophilousTransition(int64_t num_classes, double in_class_prob);

/// Cyclic (class-progression) transition: edges flow from class c to class
/// (c+1) mod C with probability `forward_prob`, `self_prob` stays in-class,
/// remainder uniform. Low edge homophily but *strong directed structure*:
/// A·Aᵀ / Aᵀ·A are homophilous while A·A walks two classes ahead — exactly
/// the entanglement AMUD is designed to detect (paper Sec. III, Fig. 3).
Matrix CyclicTransition(int64_t num_classes, double forward_prob,
                        double self_prob = 0.0);

/// Symmetric heterophilous transition: uniform off-diagonal with
/// `self_prob` on the diagonal. Combined with high `reciprocal_prob`, this
/// models Actor/Amazon-rating style graphs: heterophilous by edge homophily
/// yet with direction-free structure (AMUD should say undirected).
Matrix SymmetricHeterophilousTransition(int64_t num_classes,
                                        double self_prob = 0.05);

/// Samples a DSBM dataset (graph + Gaussian class-conditional features +
/// balanced labels). Splits are left empty; apply a split builder next.
Result<Dataset> GenerateDsbm(const DsbmConfig& config);

}  // namespace adpa

