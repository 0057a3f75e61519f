#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/digraph.h"
#include "src/tensor/matrix.h"

namespace adpa {

/// A semi-supervised node-classification task: a (di)graph, node features,
/// node labels, and index-based train/validation/test splits.
struct Dataset {
  std::string name;
  Digraph graph;
  Matrix features;              ///< n x f
  std::vector<int64_t> labels;  ///< n, values in [0, num_classes)
  int64_t num_classes = 0;
  std::vector<int64_t> train_idx;
  std::vector<int64_t> val_idx;
  std::vector<int64_t> test_idx;

  int64_t num_nodes() const { return graph.num_nodes(); }
  int64_t num_edges() const { return graph.num_edges(); }
  int64_t feature_dim() const { return features.cols(); }

  /// Structural validation: shapes agree, labels in range, splits disjoint,
  /// in range and non-empty. Returns the first violation found.
  ADPA_NODISCARD Status Validate() const;

  /// Copy of this dataset with the graph replaced by its undirected
  /// transformation (features/labels/splits shared structure unchanged).
  Dataset WithUndirectedGraph() const;
};

}  // namespace adpa

