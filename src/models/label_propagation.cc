#include "src/models/label_propagation.h"

#include <utility>

#include "src/core/logging.h"
#include "src/graph/sparse_matrix.h"
#include "src/train/trainer.h"

namespace adpa {

LabelPropagationResult PropagateLabels(const Dataset& dataset, int steps,
                                       float alpha) {
  ADPA_CHECK_GE(steps, 1);
  ADPA_CHECK_GE(alpha, 0.0f);
  ADPA_CHECK_LE(alpha, 1.0f);
  const int64_t n = dataset.num_nodes();
  const int64_t c = dataset.num_classes;
  Matrix seed(n, c);
  for (int64_t i : dataset.train_idx) seed.At(i, dataset.labels[i]) = 1.0f;

  const SparseMatrix op =
      NormalizeSymmetric(AddSelfLoops(dataset.graph.AdjacencyMatrix()));
  Matrix scores = seed;
  Matrix propagated;  // double-buffered across steps; two allocations total
  for (int step = 0; step < steps; ++step) {
    // propagated = (1-alpha) * op*scores + alpha * seed
    op.MultiplyInto(scores, &propagated);
    propagated.ScaleInPlace(1.0f - alpha);
    propagated.AddScaledInPlace(seed, alpha);
    // Clamp training rows to their known labels.
    for (int64_t i : dataset.train_idx) {
      float* row = propagated.Row(i);
      for (int64_t k = 0; k < c; ++k) row[k] = 0.0f;
      row[dataset.labels[i]] = 1.0f;
    }
    std::swap(scores, propagated);
  }

  LabelPropagationResult result;
  result.predictions.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = scores.Row(i);
    int64_t argmax = 0;
    for (int64_t k = 1; k < c; ++k) {
      if (row[k] > row[argmax]) argmax = k;
    }
    result.predictions[i] = argmax;
  }
  result.scores = std::move(scores);
  return result;
}

double LabelPropagationAccuracy(const Dataset& dataset, int steps,
                                float alpha) {
  const LabelPropagationResult result =
      PropagateLabels(dataset, steps, alpha);
  return Accuracy(result.scores, dataset.labels, dataset.test_idx);
}

}  // namespace adpa
