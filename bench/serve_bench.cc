// serve_bench — latency/throughput benchmark for the batched serving path.
//
// Builds a registry benchmark, snapshots a freshly initialized ADPA model
// into a checkpoint (training does not change inference cost), then drives
// the InferenceSession + MicroBatcher stack with bursts of point queries at
// 1, 2, and 8 kernel threads, leaving out any count above the host's online
// CPUs (such a row would time oversubscription): each burst is submitted,
// then flushed in one go, as the serving loop does with the requests it
// read in one turn. Emits a JSON report (BENCH_serve.json via
// tools/bench_to_json.sh): the host's CPU count, and per-thread-count
// p50/p99/mean request latency and sustained QPS over the timed requests
// only.
//
//   serve_bench [--name=Texas --scale=1.0 --requests=400
//                --nodes_per_request=8 --burst=16 --seed=1]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/core/flags.h"
#include "src/core/logging.h"
#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/serve/batcher.h"
#include "src/serve/engine.h"
#include "src/serve/metrics.h"
#include "src/tensor/simd.h"

namespace adpa {
namespace {

struct RunStats {
  int threads = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double qps = 0.0;
  double mean_batch_requests = 0.0;
  uint64_t requests = 0;
};

RunStats RunAtThreadCount(const serve::InferenceSession& session, int threads,
                          int num_requests, int nodes_per_request, int burst,
                          uint64_t seed) {
  SetNumThreads(threads);
  Rng rng(seed);

  auto draw_nodes = [&] {
    std::vector<int64_t> nodes(nodes_per_request);
    for (int64_t& node : nodes) {
      node = rng.UniformInt(session.num_nodes());
    }
    return nodes;
  };

  // Warmup: touch every code path once, outside the timed span and the
  // metrics.
  {
    serve::MicroBatcher warmup(nullptr, {});
    serve::MicroBatcher::Slot slot;
    warmup.Submit(draw_nodes(), /*deadline_ms=*/0, &slot);
    warmup.Flush(&session);
    ADPA_CHECK(slot->ok());
  }

  serve::ServeMetrics metrics;
  serve::MicroBatcher batcher(&metrics, {});
  std::vector<serve::MicroBatcher::Slot> slots(burst);
  const auto start = std::chrono::steady_clock::now();
  int remaining = num_requests;
  while (remaining > 0) {
    const int in_burst = remaining < burst ? remaining : burst;
    for (int i = 0; i < in_burst; ++i) {
      slots[i].reset();
      batcher.Submit(draw_nodes(), /*deadline_ms=*/0, &slots[i]);
    }
    batcher.Flush(&session);
    for (int i = 0; i < in_burst; ++i) ADPA_CHECK(slots[i]->ok());
    remaining -= in_burst;
  }
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  RunStats stats;
  stats.threads = threads;
  stats.p50_ms = snapshot.p50_latency_ms;
  stats.p99_ms = snapshot.p99_latency_ms;
  stats.mean_ms = snapshot.mean_latency_ms;
  stats.mean_batch_requests = snapshot.mean_batch_requests;
  stats.requests = snapshot.requests;
  stats.qps = elapsed_s > 0.0 ? num_requests / elapsed_s : 0.0;
  return stats;
}

int Main(int argc, char** argv) {
  // A request's node count shares ParseRequestLine's cap, and a burst is
  // queued whole, so it stays within the batcher's default queue depth.
  constexpr int64_t kMaxRequestNodes = int64_t{1} << 20;
  Flags flags;
  const bool parsed = flags.Parse(argc, argv);
  const std::string name = flags.GetString("name", "Texas");
  const std::optional<double> scale = RealFlag(
      flags, "scale", 1.0, [](double v) { return v > 0.0; }, "scale > 0");
  const std::optional<int64_t> requests_flag =
      CountFlag(flags, "requests", 400, 1, kMaxCount);
  const std::optional<int64_t> nodes_flag =
      CountFlag(flags, "nodes_per_request", 8, 1, kMaxRequestNodes);
  const std::optional<int64_t> burst_flag = CountFlag(
      flags, "burst", 16, 1, serve::MicroBatcher::Options{}.max_queue_depth);
  const std::optional<int64_t> seed_flag =
      CountFlag(flags, "seed", 1, 0, kMaxSeed);
  if (!parsed || !scale || !requests_flag || !nodes_flag || !burst_flag ||
      !seed_flag || !AllFlagsRead(flags)) {
    std::fprintf(stderr, "usage: serve_bench [--name=S --scale=F --requests=N "
                         "--nodes_per_request=N --burst=N --seed=N]\n");
    return 2;
  }
  const int requests = static_cast<int>(*requests_flag);
  const int nodes_per_request = static_cast<int>(*nodes_flag);
  const int burst = static_cast<int>(*burst_flag);
  const uint64_t seed = static_cast<uint64_t>(*seed_flag);

  Result<Dataset> dataset = BuildBenchmarkByName(name, seed, *scale);
  ADPA_CHECK(dataset.ok()) << dataset.status().ToString();
  Rng rng(seed);
  ModelConfig config;
  Result<ModelPtr> model = CreateModel("ADPA", *dataset, config, &rng);
  ADPA_CHECK(model.ok()) << model.status().ToString();
  const Checkpoint checkpoint =
      MakeCheckpoint(**model, "ADPA", *dataset, config, TrainConfig());
  Result<serve::InferenceSession> session =
      serve::InferenceSession::Create(checkpoint, *dataset);
  ADPA_CHECK(session.ok()) << session.status().ToString();

  // build_type is the provenance key tools/bench_to_json.sh keys off: a
  // debug/sanitizer build must not overwrite the checked-in numbers.
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  const int nproc =
      std::max(1, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
  std::printf("{\n  \"bench\": \"serve\",\n  \"transport\": \"in_process\",\n"
              "  \"build_type\": \"%s\",\n  \"nproc\": %d,\n"
              "  \"simd_level\": \"%s\",\n  \"dataset\": \"%s\",\n"
              "  \"nodes\": %lld,\n  \"requests\": %d,\n"
              "  \"nodes_per_request\": %d,\n  \"burst\": %d,\n"
              "  \"runs\": [\n",
              build_type, nproc, simd::LevelName(simd::ActiveLevel()),
              dataset->name.c_str(),
              static_cast<long long>(dataset->num_nodes()), requests,
              nodes_per_request, burst);
  std::vector<int> thread_counts;
  for (const int threads : {1, 2, 8}) {
    if (threads <= nproc) thread_counts.push_back(threads);
  }
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    const RunStats stats =
        RunAtThreadCount(*session, thread_counts[i], requests,
                         nodes_per_request, burst, seed + i);
    std::printf("    {\"threads\": %d, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                "\"mean_ms\": %.4f, \"qps\": %.1f, "
                "\"mean_batch_requests\": %.2f}%s\n",
                stats.threads, stats.p50_ms, stats.p99_ms, stats.mean_ms,
                stats.qps, stats.mean_batch_requests,
                i + 1 < thread_counts.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) { return adpa::Main(argc, argv); }
