// Training side of the benchmark: the train and sweep workloads, and the
// per-layer replay that traced runs of every workload perform.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/amud/amud.h"
#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/graph/patterns.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/serve/engine.h"
#include "src/serve/hot_swap.h"
#include "src/tensor/matrix.h"
#include "src/train/grid_search.h"
#include "src/train/trainer.h"

namespace perfbench {

using adpa::Dataset;
using adpa::Result;

bool BuildDataset(const std::string& name, uint64_t seed, double scale,
                  Dataset* out, std::vector<double>* secs, RunReport* report) {
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    Result<Dataset> built = adpa::BuildBenchmarkByName(name, seed, scale);
    secs->push_back(SecondsBetween(t0, Clock::now()));
    report->Count("setup", 1, built.ok() ? 0 : 1);
    if (!built.ok()) {
      report->Mismatch("dataset build failed: " + built.status().ToString());
      return false;
    }
    *out = std::move(*built);
  }
  report->Note("dataset", "{\"name\": \"" + name + "\", \"scale\": " +
                              std::to_string(scale) + ", \"nodes\": " +
                              std::to_string(out->num_nodes()) +
                              ", \"edges\": " +
                              std::to_string(out->num_edges()) +
                              ", \"features\": " +
                              std::to_string(out->feature_dim()) + "}");
  return true;
}

namespace {

adpa::TrainConfig FixedEpochs(int epochs) {
  adpa::TrainConfig config;
  config.max_epochs = epochs;
  config.patience = 0;  // early stopping off: every job runs every epoch
  return config;
}

}  // namespace

bool AmudStage(const Dataset& natural, const std::string& name, Trace* trace,
               RunReport* report, Dataset* work) {
  Result<adpa::AmudReport> amud = trace->Span("amud.score", [&] {
    return adpa::ComputeAmud(natural.graph, natural.labels,
                             natural.num_classes);
  });
  Result<adpa::BenchmarkSpec> spec = adpa::FindBenchmark(name);
  const bool directed =
      amud.ok() && amud->decision == adpa::AmudDecision::kDirected;
  const bool ok = amud.ok() && spec.ok() && directed == spec->expect_directed;
  report->Count("amud", 1, ok ? 0 : 1);
  if (!ok) {
    report->Mismatch("AMUD decision for " + name +
                     " differs from BenchmarkSpec::expect_directed");
    return false;
  }
  trace->Span("amud.apply", [&] {
    *work = natural;
    work->graph = adpa::ApplyAmudDecision(natural.graph, amud->decision);
  });
  return true;
}

namespace {

int64_t FileBytes(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0 ? static_cast<int64_t>(info.st_size)
                                          : -1;
}

/// Saves a checkpoint of `model` under `path`; false on failure.
bool SaveModel(const adpa::Model& model, const Dataset& work,
               const adpa::ModelConfig& config, int epochs,
               const std::string& path, RunReport* report) {
  const adpa::Checkpoint checkpoint =
      adpa::MakeCheckpoint(model, "ADPA", work, config, FixedEpochs(epochs));
  const adpa::Status saved = adpa::SaveCheckpoint(checkpoint, path);
  report->Count("checkpoint", 1, saved.ok() ? 0 : 1);
  if (!saved.ok()) report->Mismatch("checkpoint save: " + saved.ToString());
  return saved.ok();
}

}  // namespace

bool SaveFreshModel(const Dataset& work, const adpa::ModelConfig& config,
                    uint64_t seed, const std::string& path,
                    RunReport* report) {
  adpa::Rng rng(seed);
  Result<adpa::ModelPtr> model = adpa::CreateModel("ADPA", work, config, &rng);
  if (!model.ok()) {
    report->Mismatch("CreateModel: " + model.status().ToString());
    return false;
  }
  return SaveModel(**model, work, config, 0, path, report);
}

namespace {

/// Short serving measurement of the model a training workload produced:
/// about a third of the run.
ServePlan TrainedModelServePlan(double seconds) {
  ServePlan plan;
  plan.reference_qps = 5000;
  plan.reference_seconds = 0.25 * seconds;
  plan.ladder_qps = {1000, 2000, 4000, 6000, 8000, 10000, 12000};
  plan.rung_seconds = 0.03 * seconds;
  // Single reloads scatter by a quarter within a run, so reload_ms is the
  // median of 25.
  plan.quiet_reloads = 25;
  return plan;
}

struct TrainJob {
  double seconds = 0.0;
  double test_accuracy = 0.0;
  bool ok = false;
};

/// The train workload's job: AMUD → train → checkpoint → restore → serve
/// every node, with the restored accuracy checked against the trained one.
TrainJob RunTrainJob(const Dataset& natural, const PipelineSpec& spec,
                     uint64_t seed, const std::string& path,
                     PropagationLedger* ledger, Trace* trace,
                     RunReport* report) {
  TrainJob job;
  const Clock::time_point t0 = Clock::now();
  trace->Span("job", [&] {
    Dataset work;
    if (!AmudStage(natural, spec.dataset, trace, report, &work)) return;
    adpa::Rng rng(seed);
    Result<adpa::ModelPtr> model = trace->Span("models.create", [&] {
      return adpa::CreateModel("ADPA", work, spec.model, &rng);
    });
    if (!model.ok()) {
      report->Mismatch("CreateModel: " + model.status().ToString());
      return;
    }
    const adpa::TrainConfig train_config = FixedEpochs(spec.epochs);
    trace->Span("train.train", [&] {
      return adpa::TrainModel(model->get(), work, train_config, &rng);
    });
    const double trained = trace->Span("train.eval_forward", [&] {
      return adpa::Accuracy((*model)->Forward(false, nullptr).value(),
                            work.labels, work.test_idx);
    });
    const bool saved = trace->Span("io.save", [&] {
      return SaveModel(**model, work, spec.model, spec.epochs, path, report);
    });
    if (!saved) return;
    Result<adpa::Checkpoint> loaded =
        trace->Span("io.load", [&] { return adpa::TryLoadCheckpoint(path); });
    if (!loaded.ok()) {
      report->Mismatch("checkpoint load: " + loaded.status().ToString());
      return;
    }
    Result<adpa::serve::InferenceSession> session =
        trace->Span("serve.session_create", [&] {
          return adpa::serve::InferenceSession::Create(*loaded, work);
        });
    if (!session.ok()) {
      report->Mismatch("session: " + session.status().ToString());
      return;
    }
    const adpa::PropagationCacheKey key = adpa::MakePropagationCacheKey(
        work, spec.model, loaded->patterns);
    ledger->Record(key);  // CreateModel's Eq. 9 pass
    ledger->Record(key);  // the session's replay of it
    const double restored = trace->Span("serve.forward_all", [&] {
      return adpa::Accuracy(session->ForwardAll(), work.labels, work.test_idx);
    });
    if (restored != trained) {
      report->Mismatch("restored checkpoint accuracy " +
                       std::to_string(restored) + " != trained " +
                       std::to_string(trained));
      return;
    }
    job.test_accuracy = trained;
    job.ok = true;
  });
  job.seconds = SecondsBetween(t0, Clock::now());
  report->Count("job", 1, job.ok ? 0 : 1);
  return job;
}


}  // namespace

void ReportCoverage(const Trace& trace, RunReport* report) {
  const int64_t job = trace.Last("job");
  if (job < 0) return;
  report->Layer("trace.coverage_pct",
                100.0 * trace.ChildMs(job) / trace.DurationMs(job), "%");
}

void RunTrain(const Options& options, RunReport* report) {
  PipelineSpec spec;
  spec.dataset = "Chameleon";
  spec.scale = 10.0;
  spec.epochs = 3;
  // Order 2, K = 2, all six DPs (no selection): the paper's defaults.

  Dataset natural;
  std::vector<double> setup_s;
  if (!BuildDataset(spec.dataset, kPipelineSeed, spec.scale, &natural,
                    &setup_s, report)) {
    return;
  }
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());

  const std::string trained_path = options.work_dir + "/train-a.ckpt";
  PropagationLedger ledger;
  Trace off(false);
  std::vector<double> job_s;
  double accuracy = -1.0;
  const Clock::time_point start = Clock::now();
  while (job_s.size() < 3 ||
         SecondsBetween(start, Clock::now()) < 0.6 * options.seconds) {
    const TrainJob job = RunTrainJob(natural, spec, kPipelineSeed,
                                     trained_path, &ledger, &off, report);
    if (!job.ok) return;
    if (accuracy >= 0 && job.test_accuracy != accuracy) {
      report->Mismatch("train job is not deterministic across repeats");
    }
    accuracy = job.test_accuracy;
    job_s.push_back(job.seconds);
  }
  report->EndToEnd("job_s", Median(job_s), "s", job_s.size());
  report->EndToEnd("test_acc", accuracy, "ratio", 1);

  Trace trace(options.trace);
  if (options.trace) {
    const TrainJob traced = RunTrainJob(natural, spec, kPipelineSeed,
                                        trained_path, &ledger, &trace, report);
    report->Layer("trace.overhead_pct",
                  100.0 * (traced.seconds / Median(job_s) - 1.0), "%");
    ReportCoverage(trace, report);
    report->Layer("sweep.propagations", static_cast<double>(ledger.total()),
                  "count");
    report->Layer("sweep.distinct_keys", static_cast<double>(ledger.distinct()),
                  "count");
    RunLayerReplay(options, spec, natural, &trace, report);
  }

  Dataset work;
  if (!AmudStage(natural, spec.dataset, &off, report, &work)) return;
  ServedModel served{&work, {trained_path, options.work_dir + "/train-b.ckpt"}};
  if (!SaveFreshModel(work, spec.model, kPipelineSeed + 1, served.paths[1],
                      report)) {
    return;
  }
  RunServePhase(options, served, TrainedModelServePlan(options.seconds), &trace,
                report);
  if (options.trace) trace.Dump(options.work_dir + "/spans-train.jsonl");
}

void RunSweep(const Options& options, RunReport* report) {
  PipelineSpec spec;
  spec.dataset = "Squirrel";
  spec.scale = 4.0;
  spec.epochs = 2;
  spec.model.select_patterns = 3;

  Dataset natural;
  std::vector<double> setup_s;
  if (!BuildDataset(spec.dataset, kPipelineSeed, spec.scale, &natural,
                    &setup_s, report)) {
    return;
  }
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());

  Trace trace(options.trace);
  Trace off(false);
  const adpa::GridSearchSpace space;  // 3 learning rates x 4 dropouts
  std::vector<double> job_s;
  adpa::GridSearchResult best_result;
  bool have_best = false;
  const auto run_job = [&](Trace* t) {
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    t->Span("job", [&] {
      Dataset work;
      if (!AmudStage(natural, spec.dataset, t, report, &work)) return;
      Result<adpa::GridSearchResult> result =
          t->Span("train.grid_search", [&] {
            return adpa::GridSearch("ADPA", work, spec.model,
                                    FixedEpochs(spec.epochs), space,
                                    kPipelineSeed);
          });
      if (!result.ok()) {
        report->Mismatch("GridSearch: " + result.status().ToString());
        return;
      }
      report->Count("sweep.trials", result->trials.size(), 0);
      if (have_best &&
          (result->best.learning_rate != best_result.best.learning_rate ||
           result->best.model_config.dropout !=
               best_result.best.model_config.dropout ||
           result->best.test_accuracy != best_result.best.test_accuracy)) {
        report->Mismatch("best sweep config differs between repeats");
      }
      best_result = std::move(*result);
      have_best = ok = true;
    });
    report->Count("job", 1, ok ? 0 : 1);
    return ok ? SecondsBetween(t0, Clock::now()) : -1.0;
  };
  const Clock::time_point start = Clock::now();
  while (job_s.size() < 3 ||
         SecondsBetween(start, Clock::now()) < 0.6 * options.seconds) {
    const double seconds = run_job(&off);
    if (seconds < 0) return;
    job_s.push_back(seconds);
  }
  report->EndToEnd("job_s", Median(job_s), "s", job_s.size());
  report->EndToEnd("test_acc", best_result.best.test_accuracy, "ratio", 1);
  char best[160];
  std::snprintf(best, sizeof(best),
                "{\"learning_rate\": %g, \"dropout\": %g, \"val\": %.6f, "
                "\"test\": %.6f}",
                best_result.best.learning_rate,
                best_result.best.model_config.dropout,
                best_result.best.val_accuracy, best_result.best.test_accuracy);
  report->Note("best_config", best);

  Dataset work;
  if (!AmudStage(natural, spec.dataset, &off, report, &work)) return;
  if (options.trace) {
    const double traced = run_job(&trace);
    report->Layer("trace.overhead_pct",
                  100.0 * (traced / Median(job_s) - 1.0), "%");
    ReportCoverage(trace, report);
    // Every trial propagates once; count how many distinct Eq. 9 inputs
    // the trials actually had.
    Result<std::vector<adpa::DirectedPattern>> selected =
        adpa::SelectPatternsByCorrelation(work.graph, work.labels,
                                          work.train_idx,
                                          spec.model.pattern_order,
                                          spec.model.select_patterns);
    PropagationLedger ledger;
    for (const adpa::GridTrial& trial : best_result.trials) {
      if (selected.ok()) {
        ledger.Record(adpa::MakePropagationCacheKey(work, trial.model_config,
                                                    *selected));
      }
    }
    report->Layer("sweep.propagations", static_cast<double>(ledger.total()),
                  "count");
    report->Layer("sweep.distinct_keys",
                  static_cast<double>(ledger.distinct()), "count");
    RunLayerReplay(options, spec, natural, &trace, report);
  }

  // Ship the winner: train it once and serve it next to a fresh model.
  ServedModel served{&work,
                     {options.work_dir + "/sweep-a.ckpt",
                      options.work_dir + "/sweep-b.ckpt"}};
  {
    adpa::Rng rng(kPipelineSeed);
    const adpa::ModelConfig& config = best_result.best.model_config;
    Result<adpa::ModelPtr> model = adpa::CreateModel("ADPA", work, config, &rng);
    if (!model.ok()) {
      report->Mismatch("CreateModel: " + model.status().ToString());
      return;
    }
    adpa::TrainConfig train_config = FixedEpochs(spec.epochs);
    train_config.learning_rate = best_result.best.learning_rate;
    adpa::TrainModel(model->get(), work, train_config, &rng);
    if (!SaveModel(**model, work, config, spec.epochs, served.paths[0],
                   report) ||
        !SaveFreshModel(work, config, kPipelineSeed + 1, served.paths[1],
                        report)) {
      return;
    }
  }
  RunServePhase(options, served, TrainedModelServePlan(options.seconds), &trace,
                report);
  if (options.trace) trace.Dump(options.work_dir + "/spans-sweep.jsonl");
}

void RunLayerReplay(const Options& options, const PipelineSpec& spec,
                    const Dataset& natural, Trace* trace, RunReport* report) {
  Dataset work;
  if (!AmudStage(natural, spec.dataset, trace, report, &work)) return;
  report->Layer("amud.score_ms", trace->TotalMs("amud.score") /
                                     std::max<int64_t>(1, trace->Calls("amud.score")),
                "ms", trace->Calls("amud.score"));

  // Sec. IV-B selection, exactly as one sweep trial runs it.
  Result<std::vector<adpa::DirectedPattern>> selected =
      trace->Span("amud.select", [&] {
        return adpa::SelectPatternsByCorrelation(
            work.graph, work.labels, work.train_idx, spec.model.pattern_order,
            3);
      });
  report->Layer("amud.select_ms",
                trace->DurationMs(trace->Last("amud.select")), "ms");
  const std::vector<adpa::DirectedPattern> patterns =
      spec.model.select_patterns > 0 && selected.ok()
          ? *selected
          : adpa::EnumeratePatterns(spec.model.pattern_order);

  // Eq. 9 propagation and its computed SpMM traffic.
  trace->Span("graph.propagate", [&] {
    return adpa::serve::ComputePropagationBlocks(work, spec.model, patterns);
  });
  const int steps = std::max(1, spec.model.propagation_steps);
  int64_t hops = 0;
  for (const adpa::DirectedPattern& p : patterns) hops += p.order();
  const int64_t n = work.num_nodes();
  const int64_t f = work.feature_dim();
  const int64_t nnz = work.graph.AdjacencyMatrix().nnz();
  const int64_t spmm_calls = steps * hops;
  // Per SpMM: CSR values + column ids + row pointers, one gathered dense
  // row per nonzero, one output row per node (float32 dense).
  const int64_t bytes_per_call = nnz * 8 + (n + 1) * 8 + nnz * f * 4 + n * f * 4;
  report->Layer("graph.propagate_ms",
                trace->DurationMs(trace->Last("graph.propagate")), "ms");
  report->Layer("graph.spmm_calls", static_cast<double>(spmm_calls), "count");
  report->Layer("graph.spmm_bytes",
                static_cast<double>(spmm_calls * bytes_per_call), "bytes");

  // Model construction, a short training run and one eval forward.
  adpa::Rng rng(kPipelineSeed);
  Result<adpa::ModelPtr> model = trace->Span("models.create", [&] {
    return adpa::CreateModel("ADPA", work, spec.model, &rng);
  });
  if (!model.ok()) {
    report->Mismatch("CreateModel: " + model.status().ToString());
    return;
  }
  report->Layer("models.create_ms",
                trace->DurationMs(trace->Last("models.create")), "ms");
  const adpa::TrainResult trained = trace->Span("train.replay", [&] {
    return adpa::TrainModel(model->get(), work, FixedEpochs(2), &rng);
  });
  report->Layer("train.epoch_ms",
                trace->DurationMs(trace->Last("train.replay")) /
                    std::max(1, trained.epochs_run),
                "ms", trained.epochs_run);
  trace->Span("train.eval_forward", [&] {
    return (*model)->Forward(false, nullptr).value().rows();
  });
  report->Layer("train.eval_forward_ms",
                trace->DurationMs(trace->Last("train.eval_forward")), "ms");

  // Eq. 10 fusion GEMM: n x (k+1)f times (k+1)f x hidden.
  {
    const int64_t width = static_cast<int64_t>(patterns.size() + 1) * f;
    const int64_t hidden = spec.model.hidden;
    adpa::Rng gemm_rng(kPipelineSeed + 7);
    const adpa::Matrix a = adpa::Matrix::RandomNormal(n, width, &gemm_rng);
    const adpa::Matrix b = adpa::Matrix::RandomNormal(width, hidden, &gemm_rng);
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      trace->Span("tensor.fuse_gemm", [&] { return adpa::MatMul(a, b).rows(); });
      ms.push_back(trace->DurationMs(trace->Last("tensor.fuse_gemm")));
    }
    report->Layer("tensor.fuse_gemm_ms", Median(ms), "ms", ms.size());
    report->Layer("tensor.fuse_gemm_flops",
                  2.0 * static_cast<double>(n * width * hidden), "count");
  }

  // Checkpoint IO, session creation, reload and the full forward.
  const std::string path = options.work_dir + "/replay.ckpt";
  trace->Span("io.save", [&] {
    return SaveModel(**model, work, spec.model, 2, path, report);
  });
  report->Layer("io.save_ms", trace->DurationMs(trace->Last("io.save")), "ms");
  report->Layer("io.ckpt_bytes", static_cast<double>(FileBytes(path)), "bytes");
  Result<adpa::Checkpoint> loaded =
      trace->Span("io.load", [&] { return adpa::TryLoadCheckpoint(path); });
  report->Layer("io.load_ms", trace->DurationMs(trace->Last("io.load")), "ms");
  if (!loaded.ok()) {
    report->Mismatch("checkpoint load: " + loaded.status().ToString());
    return;
  }
  Result<adpa::serve::InferenceSession> session =
      trace->Span("serve.session_create", [&] {
        return adpa::serve::InferenceSession::Create(*loaded, work);
      });
  report->Layer("serve.session_create_ms",
                trace->DurationMs(trace->Last("serve.session_create")), "ms");
  if (!session.ok()) {
    report->Mismatch("session: " + session.status().ToString());
    return;
  }
  {
    adpa::serve::SessionRegistry registry(&work, {});
    std::vector<double> ms;
    for (int r = 0; r < 2; ++r) {
      const bool ok = trace->Span("serve.registry_reload", [&] {
        return registry.Reload(path).ok();
      });
      if (!ok) report->Mismatch("in-process registry reload failed");
      ms.push_back(trace->DurationMs(trace->Last("serve.registry_reload")));
    }
    report->Layer("serve.reload_ms", ms.back(), "ms");
  }
  trace->Span("serve.forward_all", [&] { return session->ForwardAll().rows(); });
  report->Layer("serve.forward_all_ms",
                trace->DurationMs(trace->Last("serve.forward_all")), "ms");
  ReplayRequestPath(options, *session, work, trace, report);

  // Sec. IV-D scaling: one Eq. 9 pass and one epoch at 1/4, 1/2 and 1 of
  // the workload's scale, fitted log-log against m·f and n·f².
  std::vector<double> mf, propagate_ms, nf2, epoch_ms;
  for (double fraction : {0.25, 0.5, 1.0}) {
    Result<Dataset> ds = adpa::BuildBenchmarkByName(
        spec.dataset, kPipelineSeed, spec.scale * fraction);
    if (!ds.ok()) continue;
    const std::vector<adpa::DirectedPattern> all =
        adpa::EnumeratePatterns(spec.model.pattern_order);
    const Clock::time_point t0 = Clock::now();
    adpa::serve::ComputePropagationBlocks(*ds, spec.model, all);
    propagate_ms.push_back(MsBetween(t0, Clock::now()));
    mf.push_back(static_cast<double>(ds->num_edges() * ds->feature_dim()));
    adpa::Rng slope_rng(kPipelineSeed);
    adpa::ModelConfig config = spec.model;
    config.select_patterns = 0;
    Result<adpa::ModelPtr> m = adpa::CreateModel("ADPA", *ds, config, &slope_rng);
    if (!m.ok()) continue;
    const Clock::time_point t1 = Clock::now();
    adpa::TrainModel(m->get(), *ds, FixedEpochs(1), &slope_rng);
    epoch_ms.push_back(MsBetween(t1, Clock::now()));
    nf2.push_back(static_cast<double>(ds->num_nodes()) *
                  static_cast<double>(ds->feature_dim() * ds->feature_dim()));
  }
  report->Layer("graph.propagate_slope", LogLogSlope(mf, propagate_ms),
                "ratio", mf.size());
  report->Layer("train.epoch_slope", LogLogSlope(nf2, epoch_ms), "ratio",
                nf2.size());
}

}  // namespace perfbench
