#include "src/data/generators.h"

#include <algorithm>
#include <unordered_set>

#include "src/core/logging.h"
#include "src/core/random.h"

namespace adpa {

Matrix HomophilousTransition(int64_t num_classes, double in_class_prob) {
  ADPA_CHECK_GE(num_classes, 2);
  ADPA_CHECK_GT(in_class_prob, 0.0);
  ADPA_CHECK_LE(in_class_prob, 1.0);
  Matrix m(num_classes, num_classes,
           static_cast<float>((1.0 - in_class_prob) /
                              static_cast<double>(num_classes - 1)));
  for (int64_t c = 0; c < num_classes; ++c) {
    m.At(c, c) = static_cast<float>(in_class_prob);
  }
  return m;
}

Matrix CyclicTransition(int64_t num_classes, double forward_prob,
                        double self_prob) {
  ADPA_CHECK_GE(num_classes, 2);
  ADPA_CHECK_GE(forward_prob, 0.0);
  ADPA_CHECK_GE(self_prob, 0.0);
  ADPA_CHECK_LE(forward_prob + self_prob, 1.0);
  const double rest =
      (1.0 - forward_prob - self_prob) / static_cast<double>(num_classes);
  Matrix m(num_classes, num_classes, static_cast<float>(rest));
  for (int64_t c = 0; c < num_classes; ++c) {
    m.At(c, (c + 1) % num_classes) += static_cast<float>(forward_prob);
    m.At(c, c) += static_cast<float>(self_prob);
  }
  return m;
}

Matrix SymmetricHeterophilousTransition(int64_t num_classes,
                                        double self_prob) {
  ADPA_CHECK_GE(num_classes, 2);
  ADPA_CHECK_GE(self_prob, 0.0);
  ADPA_CHECK_LT(self_prob, 1.0);
  // Symmetric class ring: class c connects to its two ring neighbors with
  // equal weight. Heterophilous by edge homophily, yet the structure is
  // direction-free (M = Mᵀ): every 2-order DP carries the same label
  // signal, so AMUD sees no reason to retain directed edges.
  Matrix m(num_classes, num_classes, 0.0f);
  const float neighbor_mass = static_cast<float>((1.0 - self_prob) / 2.0);
  for (int64_t c = 0; c < num_classes; ++c) {
    m.At(c, c) = static_cast<float>(self_prob);
    m.At(c, (c + 1) % num_classes) += neighbor_mass;
    m.At(c, (c + num_classes - 1) % num_classes) += neighbor_mass;
  }
  return m;
}

Result<Dataset> GenerateDsbm(const DsbmConfig& config) {
  if (config.num_nodes < config.num_classes) {
    return Status::InvalidArgument("need at least one node per class");
  }
  if (config.num_classes < 2) {
    return Status::InvalidArgument("num_classes must be >= 2");
  }
  if (config.class_transition.rows() != config.num_classes ||
      config.class_transition.cols() != config.num_classes) {
    return Status::InvalidArgument("class_transition must be C x C");
  }
  if (config.avg_out_degree <= 0.0 || config.feature_dim <= 0) {
    return Status::InvalidArgument("degree and feature_dim must be positive");
  }

  Rng rng(config.seed);
  const int64_t n = config.num_nodes;
  const int64_t num_classes = config.num_classes;

  // Balanced labels via a shuffled round-robin assignment.
  std::vector<int64_t> labels(n);
  for (int64_t i = 0; i < n; ++i) labels[i] = i % num_classes;
  rng.Shuffle(&labels);

  std::vector<std::vector<int64_t>> nodes_by_class(num_classes);
  for (int64_t i = 0; i < n; ++i) nodes_by_class[labels[i]].push_back(i);

  // Per-source-class target distributions.
  std::vector<std::vector<double>> transition(num_classes);
  for (int64_t c = 0; c < num_classes; ++c) {
    transition[c].resize(num_classes);
    for (int64_t d = 0; d < num_classes; ++d) {
      const float w = config.class_transition.At(c, d);
      if (w < 0.0f) {
        return Status::InvalidArgument("class_transition has negative weight");
      }
      transition[c][d] = w;
    }
  }

  const int64_t target_edges = static_cast<int64_t>(
      config.avg_out_degree * static_cast<double>(n));
  std::vector<Edge> edges;
  edges.reserve(target_edges * 2);
  for (int64_t e = 0; e < target_edges; ++e) {
    const int64_t u = rng.UniformInt(n);
    int64_t target_class;
    if (rng.Bernoulli(config.edge_noise)) {
      target_class = rng.UniformInt(num_classes);
    } else {
      target_class = rng.Categorical(transition[labels[u]]);
    }
    const auto& pool = nodes_by_class[target_class];
    int64_t v = pool[rng.UniformInt(static_cast<int64_t>(pool.size()))];
    if (u == v) continue;  // simple graph: skip self loops
    edges.push_back({u, v});
    if (config.reciprocal_prob > 0.0 &&
        rng.Bernoulli(config.reciprocal_prob)) {
      edges.push_back({v, u});
    }
  }

  Result<Digraph> graph = Digraph::Create(n, std::move(edges));
  if (!graph.ok()) return graph.status();

  // Class-conditional Gaussian features: x_v = mu_{y_v} + noise.
  Matrix class_means = Matrix::RandomNormal(
      num_classes, config.feature_dim, &rng, 0.0f,
      static_cast<float>(config.feature_signal));
  Matrix features(n, config.feature_dim);
  for (int64_t i = 0; i < n; ++i) {
    const float* mean_row = class_means.Row(labels[i]);
    float* row = features.Row(i);
    for (int64_t c = 0; c < config.feature_dim; ++c) {
      row[c] = mean_row[c] +
               static_cast<float>(rng.Normal(0.0, config.feature_noise));
    }
  }

  Dataset dataset;
  dataset.name = "dsbm";
  dataset.graph = std::move(graph).value();
  dataset.features = std::move(features);
  dataset.labels = std::move(labels);
  dataset.num_classes = num_classes;
  return dataset;
}

}  // namespace adpa
