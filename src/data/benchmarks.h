#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/data/dataset.h"
#include "src/data/generators.h"
#include "src/data/splits.h"

namespace adpa {

/// Split protocol selector (the paper uses both, per dataset).
enum class SplitProtocol { kPerClass, kFractions };

/// A calibrated synthetic counterpart of one of the paper's 14 benchmark
/// datasets (Table II). `config` controls topology/features; the split
/// fields mirror the paper's protocol for that dataset. `expect_directed`
/// records the AMUD decision the paper reports (D-/U- in Table II), which
/// the calibration tests assert our generator reproduces.
struct BenchmarkSpec {
  std::string name;
  std::string description;
  DsbmConfig config;
  SplitProtocol protocol = SplitProtocol::kPerClass;
  // kPerClass parameters:
  int64_t train_per_class = 20;
  int64_t num_val = 300;
  int64_t num_test = 0;  // 0 = all remaining
  // kFractions parameters:
  double train_fraction = 0.48;
  double val_fraction = 0.32;
  bool expect_directed = false;
  bool homophilous = false;  ///< by edge/adjusted homophily convention
};

/// The full 14-dataset suite, in Table II order.
const std::vector<BenchmarkSpec>& BenchmarkSuite();

/// Looks a spec up by (case-sensitive) name.
Result<BenchmarkSpec> FindBenchmark(const std::string& name);

/// Instantiates the dataset: generates the DSBM with `seed` folded into the
/// spec's base seed, applies the split protocol, and validates. `scale`
/// multiplies the node count (1.0 = calibrated default); a scale that is
/// not positive and finite, or that gives more nodes than
/// DatasetLimits::max_nodes, is InvalidArgument.
Result<Dataset> BuildBenchmark(const BenchmarkSpec& spec, uint64_t seed,
                               double scale = 1.0);

/// Convenience: FindBenchmark + BuildBenchmark.
Result<Dataset> BuildBenchmarkByName(const std::string& name, uint64_t seed,
                                     double scale = 1.0);

}  // namespace adpa

