// perfbench — one benchmark for the whole ADPA pipeline.
//
//   perfbench --workload=train|sweep|serve|serve-reload --seed=N
//             --seconds=S --trace=0|1 --threads=T --work_dir=DIR
//             [--commit=SHA] [--source_hash=HEX]
//
// Prints one detail line (provenance, phases, sample counts) and then the
// result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// Untraced runs report the end-to-end metrics; traced runs (--trace=1) the
// per-layer ones. Exit status is 0 for a correct run, 1 when any output
// check failed, 2 for a refused or malformed invocation.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/bench.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailQuantile(size_t samples) {
  for (double q : {0.999, 0.99, 0.95, 0.90}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += std::log(x[i]);
    my += std::log(y[i]);
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = std::log(x[i]) - mx;
    sxy += dx * (std::log(y[i]) - my);
    sxx += dx * dx;
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

namespace {

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<RunReport::Metric>& metrics,
                        bool with_samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const RunReport::Metric& m = metrics[i];
    out += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

}  // namespace

void RunReport::EndToEnd(const std::string& name, double value,
                         const std::string& unit, int64_t samples) {
  end_to_end_.push_back({name, value, unit, samples});
}

void RunReport::Layer(const std::string& name, double value,
                      const std::string& unit, int64_t samples) {
  per_layer_.push_back({name, value, unit, samples});
}

void RunReport::Count(const std::string& phase, int64_t attempted,
                      int64_t failed) {
  Phase& p = phases_[phase];
  p.attempted += attempted;
  p.failed += failed;
}

void RunReport::Mismatch(const std::string& what) {
  if (mismatches_.size() < 20) mismatches_.push_back(what);
  if (mismatches_.size() == 20) mismatches_.push_back("...");
}

void RunReport::Note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

bool RunReport::HasEndToEnd(const std::string& name) const {
  for (const Metric& m : end_to_end_) {
    if (m.name == name) return true;
  }
  return false;
}

int64_t RunReport::attempted() const {
  int64_t total = 0;
  for (const auto& [name, phase] : phases_) total += phase.attempted;
  return total;
}

int64_t RunReport::failed() const {
  int64_t total = 0;
  for (const auto& [name, phase] : phases_) total += phase.failed;
  return total;
}

void RunReport::AddSuccessRatio() {
  const int64_t tried = std::max<int64_t>(1, attempted());
  EndToEnd("success_ratio",
           static_cast<double>(tried - failed()) / static_cast<double>(tried),
           "ratio", tried);
}

std::string RunReport::DetailJson() const {
  std::string out = "{\"detail\": {";
  for (const auto& [key, value] : notes_) out += Quote(key) + ": " + value + ", ";
  out += "\"phases\": {";
  bool first = true;
  for (const auto& [name, phase] : phases_) {
    out += (first ? "" : ", ") + Quote(name) + ": {\"attempted\": " +
           std::to_string(phase.attempted) + ", \"succeeded\": " +
           std::to_string(phase.attempted - phase.failed) +
           ", \"failed\": " + std::to_string(phase.failed) + "}";
    first = false;
  }
  out += "}, \"mismatches\": [";
  for (size_t i = 0; i < mismatches_.size(); ++i) {
    out += (i ? ", " : "") + Quote(mismatches_[i]);
  }
  out += "], \"end_to_end\": " + MetricsJson(end_to_end_, true) +
         ", \"per_layer\": " + MetricsJson(per_layer_, true) + "}}";
  return out;
}

std::string RunReport::ResultJson(bool traced) const {
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted())) +
         ", \"failed\": " + std::to_string(failed()) + ", \"metrics\": " +
         MetricsJson(traced ? per_layer_ : end_to_end_, false) + "}";
}

size_t Trace::Open(const char* name) {
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({name, parent, Clock::now(), Clock::time_point{}});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Trace::Close(size_t index) {
  spans_[index].end = Clock::now();
  open_.pop_back();
}

double Trace::DurationMs(size_t index) const {
  return MsBetween(spans_[index].start, spans_[index].end);
}

double Trace::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) total += DurationMs(i);
  }
  return total;
}

int64_t Trace::Calls(const std::string& name) const {
  int64_t calls = 0;
  for (const Record& r : spans_) calls += name == r.name ? 1 : 0;
  return calls;
}

double Trace::ChildMs(size_t index) const {
  double total = 0.0;
  for (size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == static_cast<int64_t>(index)) total += DurationMs(i);
  }
  return total;
}

int64_t Trace::Last(const std::string& name) const {
  for (size_t i = spans_.size(); i-- > 0;) {
    if (name == spans_[i].name) return static_cast<int64_t>(i);
  }
  return -1;
}

bool Trace::Dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out || spans_.empty()) return false;
  const Clock::time_point origin = spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << r.name
        << "\", \"parent\": " << r.parent << ", \"start_us\": "
        << Num(1000.0 * MsBetween(origin, r.start)) << ", \"end_us\": "
        << Num(1000.0 * MsBetween(origin, r.end)) << "}\n";
  }
  return static_cast<bool>(out);
}

void PropagationLedger::Record(const adpa::PropagationCacheKey& key) {
  ++total_;
  if (std::find(keys_.begin(), keys_.end(), key) == keys_.end()) {
    keys_.push_back(key);
  }
}

/// VmHWM of this process in MiB, or -1 when /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

namespace {

/// CPUs this process may run on (the affinity mask, which containers and
/// taskset narrow below the machine's count), read before any pinning.
std::vector<int> UsableCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

bool ParseArgs(int argc, char** argv, Options* options,
               std::map<std::string, std::string>* extra) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::cerr << "perfbench: expected --key=value, got " << arg << "\n";
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      options->workload = value;
    } else if (key == "seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      options->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "threads") {
      options->threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "work_dir") {
      options->work_dir = value;
    } else if (key == "commit" || key == "source_hash") {
      (*extra)[key] = value;
    } else {
      std::cerr << "perfbench: unknown flag --" << key << "\n";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::cerr << "perfbench: malformed value in " << arg << "\n";
      return false;
    }
  }
  return !options->work_dir.empty() && options->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::map<std::string, std::string> extra;
  if (!ParseArgs(argc, argv, &options, &extra)) return 2;

  // Provenance guard: numbers from a debug build or an oversubscribed pool
  // describe a different program, so such runs are refused outright.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  std::cerr << "perfbench: refusing a build without NDEBUG\n";
  return 2;
#endif
  if (build_type != "Release") {
    std::cerr << "perfbench: refusing a " << build_type << " build\n";
    return 2;
  }
  options.cpus = UsableCpus();
  const int nproc = std::max<int>(1, static_cast<int>(options.cpus.size()));
  if (options.threads < 1 || options.threads > nproc) {
    std::cerr << "perfbench: --threads=" << options.threads
              << " is outside [1, nproc=" << nproc << "]\n";
    return 2;
  }
  // Serving runs the event loop and one client thread, each on a CPU of
  // its own; fewer CPUs than that would measure oversubscription.
  constexpr int kServingThreads = 2;
  if (kServingThreads > nproc) {
    std::cerr << "perfbench: needs " << kServingThreads << " CPUs, nproc="
              << nproc << "\n";
    return 2;
  }
  adpa::SetNumThreads(options.threads);

  RunReport report;
  report.Note("workload", "\"" + options.workload + "\"");
  report.Note("seed", std::to_string(options.seed));
  report.Note("seconds", std::to_string(options.seconds));
  report.Note("trace", options.trace ? "true" : "false");
  report.Note("nproc", std::to_string(nproc));
  report.Note("pool_threads", std::to_string(adpa::GetNumThreads()));
  report.Note("simd_level", std::string("\"") +
                                adpa::simd::LevelName(adpa::simd::ActiveLevel()) +
                                "\"");
  report.Note("build_type", "\"" + build_type + "\"");
  report.Note("commit", "\"" + extra["commit"] + "\"");
  report.Note("source_hash", "\"" + extra["source_hash"] + "\"");

  if (options.workload == "train") {
    RunTrain(options, &report);
  } else if (options.workload == "sweep") {
    RunSweep(options, &report);
  } else if (options.workload == "serve") {
    RunServe(options, &report);
  } else if (options.workload == "serve-reload") {
    RunServeReload(options, &report);
  } else {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  if (!report.HasEndToEnd("peak_rss_mb")) {
    report.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB", 1);
  }
  report.AddSuccessRatio();
  std::cout << report.DetailJson() << "\n"
            << report.ResultJson(options.trace) << std::endl;
  return report.correct() ? 0 : 1;
}
