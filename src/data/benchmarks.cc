#include "src/data/benchmarks.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/core/strings.h"
#include "src/data/io.h"

namespace adpa {
namespace {

// Calibration notes. Node counts are scaled-down versions of the real
// datasets (kept in the paper's relative order); feature dimensions are
// scaled so single-core training stays fast. Feature noise is tuned so that
// accuracies land well below 100% and model ordering is informative.
//
// Direction semantics:
//   * homophilous sets: homophilous transition + high reciprocity, so all
//     four 2-order DPs look alike -> AMUD score below θ (U-).
//   * WebKB/wiki/Roman sets: cyclic class-progression transition with zero
//     reciprocity -> AA differs sharply from AAT -> AMUD above θ (D-).
//   * Actor / Amazon-rating: heterophilous by homophily metrics but with a
//     symmetric transition and high reciprocity -> direction carries no
//     label signal -> AMUD below θ (U-), the paper's two "abnormal" cases.
std::vector<BenchmarkSpec> MakeSuite() {
  std::vector<BenchmarkSpec> suite;

  auto add = [&suite](BenchmarkSpec spec) { suite.push_back(std::move(spec)); };

  {  // CoraML: citation network, 7 classes, homophilous.
    BenchmarkSpec s;
    s.name = "CoraML";
    s.description = "citation network";
    s.config.num_nodes = 1500;
    s.config.num_classes = 7;
    s.config.avg_out_degree = 3.0;
    s.config.class_transition = HomophilousTransition(7, 0.80);
    s.config.edge_noise = 0.05;
    s.config.reciprocal_prob = 0.8;
    s.config.feature_dim = 96;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 4.0;
    s.config.seed = 101;
    s.protocol = SplitProtocol::kPerClass;
    s.train_per_class = 20;
    s.num_val = 300;
    s.homophilous = true;
    add(s);
  }
  {  // CiteSeer: sparser citation network, 6 classes.
    BenchmarkSpec s;
    s.name = "CiteSeer";
    s.description = "citation network";
    s.config.num_nodes = 1300;
    s.config.num_classes = 6;
    s.config.avg_out_degree = 1.8;
    s.config.class_transition = HomophilousTransition(6, 0.74);
    s.config.edge_noise = 0.08;
    s.config.reciprocal_prob = 0.8;
    s.config.feature_dim = 96;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 4.6;
    s.config.seed = 102;
    s.protocol = SplitProtocol::kPerClass;
    s.train_per_class = 20;
    s.num_val = 300;
    s.homophilous = true;
    add(s);
  }
  {  // PubMed: 3 classes, denser; naturally undirected in the paper.
    BenchmarkSpec s;
    s.name = "PubMed";
    s.description = "citation network (naturally undirected)";
    s.config.num_nodes = 1500;
    s.config.num_classes = 3;
    s.config.avg_out_degree = 4.5;
    s.config.class_transition = HomophilousTransition(3, 0.80);
    s.config.edge_noise = 0.05;
    s.config.reciprocal_prob = 1.0;  // fully symmetric
    s.config.feature_dim = 64;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 4.4;
    s.config.seed = 103;
    s.protocol = SplitProtocol::kPerClass;
    s.train_per_class = 20;
    s.num_val = 300;
    s.homophilous = true;
    add(s);
  }
  {  // Tolokers: 2 classes, dense crowd-sourcing graph, weak features.
    BenchmarkSpec s;
    s.name = "Tolokers";
    s.description = "crowd-sourcing network";
    s.config.num_nodes = 1400;
    s.config.num_classes = 2;
    s.config.avg_out_degree = 20.0;
    s.config.class_transition = HomophilousTransition(2, 0.62);
    s.config.edge_noise = 0.05;
    s.config.reciprocal_prob = 0.8;
    s.config.feature_dim = 16;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 4.2;
    s.config.seed = 104;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.50;
    s.val_fraction = 0.25;
    s.homophilous = true;
    add(s);
  }
  {  // WikiCS: 10 classes, web-link graph.
    BenchmarkSpec s;
    s.name = "WikiCS";
    s.description = "web-link network";
    s.config.num_nodes = 1300;
    s.config.num_classes = 10;
    s.config.avg_out_degree = 12.0;
    s.config.class_transition = HomophilousTransition(10, 0.70);
    s.config.edge_noise = 0.05;
    s.config.reciprocal_prob = 0.75;
    s.config.feature_dim = 96;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 4.8;
    s.config.seed = 105;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.05;
    s.val_fraction = 0.15;
    s.homophilous = true;
    add(s);
  }
  {  // Amazon-computers: co-purchase, 10 classes.
    BenchmarkSpec s;
    s.name = "AmazonComputers";
    s.description = "co-purchase network";
    s.config.num_nodes = 1400;
    s.config.num_classes = 10;
    s.config.avg_out_degree = 10.0;
    s.config.class_transition = HomophilousTransition(10, 0.78);
    s.config.edge_noise = 0.05;
    s.config.reciprocal_prob = 0.85;
    s.config.feature_dim = 96;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 4.4;
    s.config.seed = 106;
    s.protocol = SplitProtocol::kPerClass;
    s.train_per_class = 20;
    s.num_val = 300;
    s.homophilous = true;
    add(s);
  }
  {  // Texas: tiny WebKB page graph, strongly directed heterophily.
    BenchmarkSpec s;
    s.name = "Texas";
    s.description = "web-page network (WebKB)";
    s.config.num_nodes = 183;
    s.config.num_classes = 5;
    s.config.avg_out_degree = 1.6;
    s.config.class_transition = CyclicTransition(5, 0.85, 0.03);
    s.config.edge_noise = 0.05;
    s.config.reciprocal_prob = 0.0;
    s.config.feature_dim = 64;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 3.4;
    s.config.seed = 107;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.48;
    s.val_fraction = 0.32;
    s.expect_directed = true;
    add(s);
  }
  {  // Cornell.
    BenchmarkSpec s;
    s.name = "Cornell";
    s.description = "web-page network (WebKB)";
    s.config.num_nodes = 183;
    s.config.num_classes = 5;
    s.config.avg_out_degree = 1.7;
    s.config.class_transition = CyclicTransition(5, 0.80, 0.08);
    s.config.edge_noise = 0.08;
    s.config.reciprocal_prob = 0.0;
    s.config.feature_dim = 64;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 3.6;
    s.config.seed = 108;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.48;
    s.val_fraction = 0.32;
    s.expect_directed = true;
    add(s);
  }
  {  // Wisconsin.
    BenchmarkSpec s;
    s.name = "Wisconsin";
    s.description = "web-page network (WebKB)";
    s.config.num_nodes = 251;
    s.config.num_classes = 5;
    s.config.avg_out_degree = 1.8;
    s.config.class_transition = CyclicTransition(5, 0.78, 0.12);
    s.config.edge_noise = 0.08;
    s.config.reciprocal_prob = 0.0;
    s.config.feature_dim = 64;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 3.5;
    s.config.seed = 109;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.48;
    s.val_fraction = 0.32;
    s.expect_directed = true;
    add(s);
  }
  {  // Chameleon (filtered): wiki pages, directed heterophily, denser.
    BenchmarkSpec s;
    s.name = "Chameleon";
    s.description = "wiki-page network (filtered)";
    s.config.num_nodes = 890;
    s.config.num_classes = 5;
    s.config.avg_out_degree = 8.0;
    s.config.class_transition = CyclicTransition(5, 0.45, 0.18);
    s.config.edge_noise = 0.25;
    s.config.reciprocal_prob = 0.05;
    s.config.feature_dim = 96;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 6.0;
    s.config.seed = 110;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.48;
    s.val_fraction = 0.32;
    s.expect_directed = true;
    add(s);
  }
  {  // Squirrel (filtered): like Chameleon, larger and denser.
    BenchmarkSpec s;
    s.name = "Squirrel";
    s.description = "wiki-page network (filtered)";
    s.config.num_nodes = 1100;
    s.config.num_classes = 5;
    s.config.avg_out_degree = 14.0;
    s.config.class_transition = CyclicTransition(5, 0.40, 0.16);
    s.config.edge_noise = 0.30;
    s.config.reciprocal_prob = 0.05;
    s.config.feature_dim = 96;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 6.5;
    s.config.seed = 111;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.48;
    s.val_fraction = 0.32;
    s.expect_directed = true;
    add(s);
  }
  {  // Actor: heterophilous by homophily metrics, but direction-free — the
     // first of the paper's two "abnormal" Table V cases.
    BenchmarkSpec s;
    s.name = "Actor";
    s.description = "actor co-occurrence network";
    s.config.num_nodes = 1200;
    s.config.num_classes = 5;
    s.config.avg_out_degree = 3.5;
    s.config.class_transition = SymmetricHeterophilousTransition(5, 0.22);
    s.config.edge_noise = 0.10;
    s.config.reciprocal_prob = 0.85;
    s.config.feature_dim = 64;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 5.2;
    s.config.seed = 112;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.48;
    s.val_fraction = 0.32;
    add(s);
  }
  {  // Roman-empire: many classes, chain-like syntax structure -> directed.
    BenchmarkSpec s;
    s.name = "RomanEmpire";
    s.description = "article syntax network";
    s.config.num_nodes = 1600;
    s.config.num_classes = 18;
    s.config.avg_out_degree = 2.6;
    s.config.class_transition = CyclicTransition(18, 0.80, 0.04);
    s.config.edge_noise = 0.05;
    s.config.reciprocal_prob = 0.0;
    s.config.feature_dim = 64;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 3.6;
    s.config.seed = 113;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.50;
    s.val_fraction = 0.25;
    s.expect_directed = true;
    add(s);
  }
  {  // Amazon-rating: the second "abnormal" case.
    BenchmarkSpec s;
    s.name = "AmazonRating";
    s.description = "rating network";
    s.config.num_nodes = 1500;
    s.config.num_classes = 5;
    s.config.avg_out_degree = 3.8;
    s.config.class_transition = SymmetricHeterophilousTransition(5, 0.38);
    s.config.edge_noise = 0.10;
    s.config.reciprocal_prob = 0.85;
    s.config.feature_dim = 64;
    s.config.feature_signal = 1.0;
    s.config.feature_noise = 4.8;
    s.config.seed = 114;
    s.protocol = SplitProtocol::kFractions;
    s.train_fraction = 0.50;
    s.val_fraction = 0.25;
    add(s);
  }
  return suite;
}

}  // namespace

const std::vector<BenchmarkSpec>& BenchmarkSuite() {
  static const std::vector<BenchmarkSpec>& suite =
      *new std::vector<BenchmarkSpec>(MakeSuite());
  return suite;
}

Result<BenchmarkSpec> FindBenchmark(const std::string& name) {
  for (const BenchmarkSpec& spec : BenchmarkSuite()) {
    if (spec.name == name) return spec;
  }
  return Status::NotFound("unknown benchmark: " + name);
}

Result<Dataset> BuildBenchmark(const BenchmarkSpec& spec, uint64_t seed,
                               double scale) {
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument(
        "scale must be positive and finite, got " + FormatDouble(scale, 2));
  }
  // Checked in double, before the cast to int64 (undefined past its range):
  // a generated graph may not exceed what LoadDataset accepts.
  const double num_nodes = static_cast<double>(spec.config.num_nodes) * scale;
  const int64_t max_nodes = DatasetLimits{}.max_nodes;
  if (num_nodes > static_cast<double>(max_nodes)) {
    return Status::InvalidArgument(
        "scale " + FormatDouble(scale, 2) + " gives " + spec.name + " " +
        FormatDouble(num_nodes, 0) + " nodes, above the dataset limit of " +
        std::to_string(max_nodes));
  }
  DsbmConfig config = spec.config;
  config.num_nodes = static_cast<int64_t>(num_nodes);
  config.seed = config.seed * 0x100000001B3ULL + seed;
  Result<Dataset> dataset = GenerateDsbm(config);
  if (!dataset.ok()) return dataset.status();
  dataset->name = spec.name;

  Rng split_rng(config.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  // The absolute split sizes of the per-class protocol shrink with `scale`
  // (and the training budget is capped so tiny builds stay feasible).
  const int64_t min_class_size = dataset->num_nodes() / dataset->num_classes;
  const int64_t train_per_class =
      std::max<int64_t>(2, std::min(spec.train_per_class,
                                    min_class_size / 3));
  const int64_t num_val = std::max<int64_t>(
      10, static_cast<int64_t>(static_cast<double>(spec.num_val) * scale));
  const int64_t num_test =
      spec.num_test <= 0
          ? 0
          : std::max<int64_t>(10, static_cast<int64_t>(
                                      static_cast<double>(spec.num_test) *
                                      scale));
  Result<Split> split =
      spec.protocol == SplitProtocol::kPerClass
          ? SplitPerClass(dataset->labels, dataset->num_classes,
                          train_per_class, num_val, num_test, &split_rng)
          : SplitFractions(dataset->labels, dataset->num_classes,
                           spec.train_fraction, spec.val_fraction,
                           &split_rng);
  if (!split.ok()) return split.status();
  dataset->train_idx = std::move(split->train);
  dataset->val_idx = std::move(split->val);
  dataset->test_idx = std::move(split->test);
  ADPA_RETURN_IF_ERROR(dataset->Validate());
  return dataset;
}

Result<Dataset> BuildBenchmarkByName(const std::string& name, uint64_t seed,
                                     double scale) {
  Result<BenchmarkSpec> spec = FindBenchmark(name);
  if (!spec.ok()) return spec.status();
  return BuildBenchmark(*spec, seed, scale);
}

}  // namespace adpa
