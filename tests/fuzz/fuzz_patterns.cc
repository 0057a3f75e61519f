// Fuzz target: PatternSet construction and application, and the streamed
// Eq. 4–7 pair counts, on arbitrary small digraphs.
//
// Invariants under test:
//  * PatternSet construction (degree normalization with conv_r exponents,
//    optional self loops) is total over every valid adjacency, including
//    isolated nodes, empty graphs, self-edges, and single-node graphs;
//  * Apply/ApplyHop never crash or trip ASan/UBSan;
//  * CountPatternPairs equals the materialized oracle (tests/pattern_oracle.h)
//    for every pattern of order <= 2, over all pairs and over the pairs of
//    a fuzzed known mask, with fuzzed labels.
//
// The adjacency is built from fuzz-derived edges reduced mod n, deduped
// via FromTriplets' coalescing, so every byte string maps to a valid graph
// — the structure space (not the validator) is what's being explored here.
// The Digraph for the pair counts is the same edge list without self-edges.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/amud/amud.h"
#include "src/graph/digraph.h"
#include "src/graph/patterns.h"
#include "src/graph/sparse_matrix.h"
#include "src/tensor/matrix.h"
#include "tests/fuzz/fuzz_util.h"
#include "tests/pattern_oracle.h"

using adpa::DirectedPattern;
using adpa::Hop;
using adpa::Matrix;
using adpa::PatternPairCounts;
using adpa::PatternSet;
using adpa::SparseMatrix;
using adpa::Triplet;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  adpa::fuzz::Input in(data, size);
  const int64_t n = in.TakeInRange(1, 24);
  const int64_t num_edges = in.TakeInRange(0, 64);
  const double conv_r = static_cast<double>(in.TakeInRange(0, 4)) / 4.0;
  const bool self_loops = (in.TakeByte() & 1) != 0;

  std::vector<Triplet> triplets;
  std::vector<adpa::Edge> edges;
  triplets.reserve(static_cast<size_t>(num_edges));
  for (int64_t i = 0; i < num_edges; ++i) {
    const int64_t src = in.TakeInRange(0, n - 1);
    const int64_t dst = in.TakeInRange(0, n - 1);
    triplets.push_back({src, dst, 1.0f});
    if (src != dst) edges.push_back({src, dst});
  }
  const SparseMatrix adjacency = SparseMatrix::FromTriplets(n, n, triplets);
  const PatternSet patterns(adjacency, conv_r, self_loops);

  const std::vector<DirectedPattern> words = adpa::EnumeratePatterns(2);
  const Matrix x(n, 2, 0.25f);
  double checksum = 0.0;
  for (const DirectedPattern& pattern : words) {
    const Matrix propagated = patterns.Apply(pattern, x);
    checksum += propagated.At(0, 0);
  }
  const Matrix out_hop = patterns.ApplyHop(Hop::kOut, x);
  const Matrix in_hop = patterns.ApplyHop(Hop::kIn, x);
  checksum += out_hop.At(n - 1, 0) + in_hop.At(n - 1, 1);
  if (checksum > 1e300) __builtin_trap();  // keep the pipeline observable

  adpa::Result<adpa::Digraph> graph =
      adpa::Digraph::Create(n, std::move(edges));
  if (!graph.ok()) __builtin_trap();  // self-edges were dropped
  std::vector<int64_t> labels(n);
  std::vector<int64_t> known;
  for (int64_t u = 0; u < n; ++u) {
    const uint8_t byte = in.TakeByte();
    labels[u] = byte % 4;
    if ((byte & 0x80) != 0) known.push_back(u);
  }
  const std::vector<int64_t>* const masks[] = {nullptr, &known};
  for (const std::vector<int64_t>* mask : masks) {
    adpa::Result<std::vector<PatternPairCounts>> streamed =
        adpa::CountPatternPairs(*graph, labels, words, mask);
    if (!streamed.ok()) __builtin_trap();
    for (size_t i = 0; i < words.size(); ++i) {
      const PatternPairCounts expected = adpa::oracle::CountPairs(
          adpa::oracle::Reachability(*graph, words[i]), labels, mask);
      if ((*streamed)[i] != expected) {
        __builtin_trap();  // streamed counts differ from the oracle
      }
    }
  }
  return 0;
}
