#pragma once
#include <cstdint>
#include <vector>

#include "src/graph/digraph.h"

namespace adpa {

/// Weakly connected components (direction ignored). Returns a component id
/// per node, ids dense in [0, num_components).
struct ComponentLabeling {
  std::vector<int64_t> component_of;
  int64_t num_components = 0;
};
ComponentLabeling WeaklyConnectedComponents(const Digraph& graph);

/// Strongly connected components via Tarjan's algorithm (iterative).
ComponentLabeling StronglyConnectedComponents(const Digraph& graph);

/// Degree summary used by dataset statistics and generator validation.
struct DegreeStats {
  double mean_out = 0.0;
  double max_out = 0.0;
  double mean_in = 0.0;
  double max_in = 0.0;
  int64_t sources = 0;  ///< nodes with in-degree 0
  int64_t sinks = 0;    ///< nodes with out-degree 0
};
DegreeStats ComputeDegreeStats(const Digraph& graph);

}  // namespace adpa

