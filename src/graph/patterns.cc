#include "src/graph/patterns.h"

#include <utility>

#include "src/core/logging.h"
#include "src/core/parallel.h"

namespace adpa {

std::string DirectedPattern::Name() const {
  if (word.empty()) return "I";
  std::string name;
  for (size_t i = 0; i < word.size(); ++i) {
    if (i > 0) name += "*";
    name += word[i] == Hop::kOut ? "A" : "AT";
  }
  return name;
}

std::vector<DirectedPattern> EnumeratePatterns(int max_order) {
  ADPA_CHECK_GE(max_order, 1);
  std::vector<DirectedPattern> patterns;
  std::vector<DirectedPattern> frontier = {DirectedPattern{}};
  for (int order = 1; order <= max_order; ++order) {
    std::vector<DirectedPattern> next;
    for (const DirectedPattern& base : frontier) {
      for (Hop hop : {Hop::kOut, Hop::kIn}) {
        DirectedPattern extended = base;
        extended.word.push_back(hop);
        next.push_back(extended);
      }
    }
    patterns.insert(patterns.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  return patterns;
}

std::vector<DirectedPattern> SecondOrderPatterns() {
  using enum Hop;
  return {
      DirectedPattern{{kOut, kOut}},  // A·A
      DirectedPattern{{kIn, kIn}},    // Aᵀ·Aᵀ
      DirectedPattern{{kOut, kIn}},   // A·Aᵀ
      DirectedPattern{{kIn, kOut}},   // Aᵀ·A
  };
}

PatternSet::PatternSet(const SparseMatrix& adjacency, double conv_r,
                       bool self_loops) {
  ADPA_CHECK_EQ(adjacency.rows(), adjacency.cols());
  const SparseMatrix base =
      self_loops ? AddSelfLoops(adjacency) : adjacency;
  a_norm_ = NormalizeConvolution(base, conv_r);
  at_norm_ = NormalizeConvolution(base.Transposed(), conv_r);
}

Matrix PatternSet::ApplyHop(Hop hop, const Matrix& x) const {
  Matrix out;
  ApplyHopInto(hop, x, &out);
  return out;
}

void PatternSet::ApplyHopInto(Hop hop, const Matrix& x, Matrix* out) const {
  ADPA_CHECK_EQ(x.rows(), num_nodes())
      << "DP operand has " << x.rows() << " rows for a " << num_nodes()
      << "-node pattern set";
  (hop == Hop::kOut ? a_norm_ : at_norm_).MultiplyInto(x, out);
}

Matrix PatternSet::Apply(const DirectedPattern& pattern,
                         const Matrix& x) const {
  Matrix result = x;
  // The operator is word[0]·word[1]·…·word[L-1]; right-to-left application.
  for (auto it = pattern.word.rbegin(); it != pattern.word.rend(); ++it) {
    result = ApplyHop(*it, result);
  }
  return result;
}

void PatternSet::ApplyStep(const std::vector<DirectedPattern>& patterns,
                           std::vector<Matrix>* states) const {
  ADPA_CHECK_EQ(patterns.size(), states->size());
  ParallelFor(0, static_cast<int64_t>(patterns.size()), 1,
              [&](int64_t begin, int64_t end) {
                // Per-thread hop buffer: each hop writes into the scratch,
                // then swaps it with the state, so a steady-state step
                // performs zero allocations.
                thread_local Matrix scratch;
                for (int64_t g = begin; g < end; ++g) {
                  Matrix* state = &(*states)[g];
                  const auto& word = patterns[g].word;
                  for (auto it = word.rbegin(); it != word.rend(); ++it) {
                    ApplyHopInto(*it, *state, &scratch);
                    std::swap(*state, scratch);
                  }
                }
              });
}

}  // namespace adpa
