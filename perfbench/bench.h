// Shared pieces of the pipeline benchmark: run options, the result record,
// sample statistics, and the span recorder used by traced runs.
#pragma once
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/data/dataset.h"
#include "src/io/checkpoint.h"
#include "src/models/model.h"
#include "src/serve/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double MsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Graphs, model initialisation and training randomness come from this
/// fixed seed; the run seed draws the request corpus. After a few epochs
/// test accuracy swings by a third between model seeds, and the sweep's
/// winner must be the same configuration in every run, so the trained
/// pipeline is held fixed while the queries vary.
inline constexpr uint64_t kPipelineSeed = 1;

/// setup_s is the median of this many set-ups in one run.
inline constexpr int kSetupRepeats = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;        ///< compute pool width (SetNumThreads)
  std::vector<int> cpus;  ///< CPUs the process may use, ascending
  std::string work_dir;   ///< checkpoints and span dumps go here
};

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// The highest of p99.9 / p99 / p95 / p90 that has at least ten samples
/// beyond it, as a quantile in [0, 1]; 0.5 when even p90 has fewer.
double TailQuantile(size_t samples);
/// VmHWM of this process in MiB, or -1 when /proc is unavailable.
double PeakRssMb();
/// Least-squares slope of log(y) against log(x).
double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y);

/// Everything one run reports. Phases count operations for failure
/// accounting; any mismatch marks the run incorrect.
class RunReport {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 1;
  };
  struct Phase {
    int64_t attempted = 0;
    int64_t failed = 0;
  };

  void EndToEnd(const std::string& name, double value, const std::string& unit,
                int64_t samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             int64_t samples = 1);
  /// Records `attempted` operations of `phase`, `failed` of which failed.
  void Count(const std::string& phase, int64_t attempted, int64_t failed);
  void Mismatch(const std::string& what);
  void Note(const std::string& key, const std::string& json_value);

  bool HasEndToEnd(const std::string& name) const;
  bool correct() const { return mismatches_.empty(); }
  int64_t attempted() const;
  int64_t failed() const;
  /// success_ratio: operations that succeeded over operations attempted.
  void AddSuccessRatio();
  /// One JSON line: provenance notes, phases, sample counts, mismatches.
  std::string DetailJson() const;
  /// The result line: correct/attempted/failed plus the metrics of the run
  /// kind (per-layer when traced, end-to-end otherwise).
  std::string ResultJson(bool traced) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::map<std::string, Phase> phases_;
  std::vector<std::string> mismatches_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Span recorder for traced runs. Spans nest (each records the span open
/// when it started as its parent) and stay in memory until Dump. Disabled,
/// Span only calls the function, so untraced runs pay nothing.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  template <typename Fn>
  decltype(auto) Span(const char* name, Fn&& fn) {
    if (!enabled_) return std::forward<Fn>(fn)();
    const size_t index = Open(name);
    if constexpr (std::is_void_v<decltype(fn())>) {
      std::forward<Fn>(fn)();
      Close(index);
    } else {
      decltype(auto) result = std::forward<Fn>(fn)();
      Close(index);
      return result;
    }
  }

  /// Total milliseconds and number of closed spans named `name`.
  double TotalMs(const std::string& name) const;
  int64_t Calls(const std::string& name) const;
  /// Milliseconds of the span at `index` covered by its direct children.
  double ChildMs(size_t index) const;
  /// Index of the most recent closed span named `name` (-1 if none).
  int64_t Last(const std::string& name) const;
  double DurationMs(size_t index) const;

  /// Writes one JSON line per span (name, parent, start and end in µs from
  /// the first span) to `path`.
  bool Dump(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  size_t Open(const char* name);
  void Close(size_t index);

  bool enabled_;
  std::vector<Record> spans_;
  std::vector<size_t> open_;
};

/// Shape of the pipeline a workload runs, from dataset to served model.
struct PipelineSpec {
  std::string dataset;   ///< registry name (src/data/benchmarks.h)
  double scale = 1.0;
  adpa::ModelConfig model;
  int epochs = 1;        ///< fixed epoch count, early stopping off
};

/// Fixed per-workload parameters of the serving measurement.
struct ServePlan {
  double reference_qps = 0.0;   ///< p50_ms / p99_ms are measured here
  double reference_seconds = 0.0;
  double reload_every_s = 0.0;  ///< >0: reloads ride the reference stream
  std::vector<double> ladder_qps;
  double rung_seconds = 0.0;
  int quiet_reloads = 0;        ///< reload probes without query load
  int closed_loop_passes = 0;   ///< job_s for the serving workloads
};

/// A dataset plus the two checkpoints a serving phase alternates between.
struct ServedModel {
  const adpa::Dataset* dataset = nullptr;
  std::string paths[2];
};

/// Drives the real TCP server over `model` with `plan`, checks every reply
/// against in-process Classify, and records serving metrics into `report`.
void RunServePhase(const Options& options, const ServedModel& model,
                   const ServePlan& plan, Trace* trace, RunReport* report);

/// Per-layer replay over a workload's dataset: every public call the
/// pipeline makes, timed one at a time. Traced runs only.
void RunLayerReplay(const Options& options, const PipelineSpec& spec,
                    const adpa::Dataset& natural, Trace* trace,
                    RunReport* report);

/// The request path without sockets, over the workload's request corpus:
/// ParseRequestLine, LineFramer, in-process Classify, FormatClassesReply.
void ReplayRequestPath(const Options& options,
                       const adpa::serve::InferenceSession& session,
                       const adpa::Dataset& dataset, Trace* trace,
                       RunReport* report);

/// The four workloads. Failures are recorded in `report` as mismatches.
void RunTrain(const Options& options, RunReport* report);
void RunSweep(const Options& options, RunReport* report);
void RunServe(const Options& options, RunReport* report);
void RunServeReload(const Options& options, RunReport* report);

/// trace.coverage_pct: the share of the last traced "job" span that its
/// child spans cover.
void ReportCoverage(const Trace& trace, RunReport* report);

/// Builds `name` at `scale` from `seed` kSetupRepeats times, appending
/// each build time to `secs`. Returns false (with a mismatch) on failure.
bool BuildDataset(const std::string& name, uint64_t seed, double scale,
                  adpa::Dataset* out, std::vector<double>* secs,
                  RunReport* report);

/// ComputeAmud on `natural`, checked against the registry's recorded
/// decision for `name` (BenchmarkSpec::expect_directed); on success `work`
/// is `natural` with the decision applied.
bool AmudStage(const adpa::Dataset& natural, const std::string& name,
               Trace* trace, RunReport* report, adpa::Dataset* work);

/// Saves a freshly initialised ADPA model of `config` under `path`.
bool SaveFreshModel(const adpa::Dataset& work, const adpa::ModelConfig& config,
                    uint64_t seed, const std::string& path, RunReport* report);

/// Eq. 9 propagations performed by the run, keyed for the
/// sweep.propagations / sweep.distinct_keys ratio.
class PropagationLedger {
 public:
  void Record(const adpa::PropagationCacheKey& key);
  int64_t total() const { return total_; }
  int64_t distinct() const { return static_cast<int64_t>(keys_.size()); }

 private:
  int64_t total_ = 0;
  std::vector<adpa::PropagationCacheKey> keys_;
};

}  // namespace perfbench
