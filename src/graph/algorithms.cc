#include "src/graph/algorithms.h"

#include <algorithm>
#include <deque>

namespace adpa {

ComponentLabeling WeaklyConnectedComponents(const Digraph& graph) {
  const int64_t n = graph.num_nodes();
  ComponentLabeling labeling;
  labeling.component_of.assign(n, -1);
  std::deque<int64_t> queue;
  for (int64_t start = 0; start < n; ++start) {
    if (labeling.component_of[start] != -1) continue;
    const int64_t component = labeling.num_components++;
    labeling.component_of[start] = component;
    queue.push_back(start);
    while (!queue.empty()) {
      const int64_t u = queue.front();
      queue.pop_front();
      for (const auto* neighbors :
           {&graph.OutNeighbors(u), &graph.InNeighbors(u)}) {
        for (int64_t v : *neighbors) {
          if (labeling.component_of[v] == -1) {
            labeling.component_of[v] = component;
            queue.push_back(v);
          }
        }
      }
    }
  }
  return labeling;
}

ComponentLabeling StronglyConnectedComponents(const Digraph& graph) {
  // Iterative Tarjan: explicit stack of (node, next-neighbor-index).
  const int64_t n = graph.num_nodes();
  ComponentLabeling labeling;
  labeling.component_of.assign(n, -1);
  std::vector<int64_t> index(n, -1), low_link(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int64_t> scc_stack;
  int64_t next_index = 0;

  std::vector<std::pair<int64_t, size_t>> call_stack;
  for (int64_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    call_stack.emplace_back(root, 0);
    index[root] = low_link[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      auto& [u, next_child] = call_stack.back();
      const auto& neighbors = graph.OutNeighbors(u);
      if (next_child < neighbors.size()) {
        const int64_t v = neighbors[next_child++];
        if (index[v] == -1) {
          index[v] = low_link[v] = next_index++;
          scc_stack.push_back(v);
          on_stack[v] = true;
          call_stack.emplace_back(v, 0);
        } else if (on_stack[v]) {
          low_link[u] = std::min(low_link[u], index[v]);
        }
      } else {
        if (low_link[u] == index[u]) {
          const int64_t component = labeling.num_components++;
          int64_t w;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            labeling.component_of[w] = component;
          } while (w != u);
        }
        const int64_t finished = u;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const int64_t parent = call_stack.back().first;
          low_link[parent] = std::min(low_link[parent], low_link[finished]);
        }
      }
    }
  }
  return labeling;
}

DegreeStats ComputeDegreeStats(const Digraph& graph) {
  DegreeStats stats;
  const int64_t n = graph.num_nodes();
  if (n == 0) return stats;
  for (int64_t u = 0; u < n; ++u) {
    const double out = static_cast<double>(graph.OutDegree(u));
    const double in = static_cast<double>(graph.InDegree(u));
    stats.mean_out += out;
    stats.mean_in += in;
    stats.max_out = std::max(stats.max_out, out);
    stats.max_in = std::max(stats.max_in, in);
    stats.sources += in == 0.0;
    stats.sinks += out == 0.0;
  }
  stats.mean_out /= static_cast<double>(n);
  stats.mean_in /= static_cast<double>(n);
  return stats;
}

}  // namespace adpa
