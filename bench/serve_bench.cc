// serve_bench — latency/throughput benchmark for the batched serving path.
//
// Builds a registry benchmark, snapshots a freshly initialized ADPA model
// into a checkpoint (training does not change inference cost), then drives
// the InferenceSession + MicroBatcher stack with bursts of point queries at
// 1, 2, and 8 kernel threads: each burst is submitted, then flushed in one
// go, as the serving loop does with the requests it read in one turn.
// Emits a JSON report (BENCH_serve.json via tools/bench_to_json.sh):
// per-thread-count p50/p99/mean request latency and sustained QPS over the
// timed requests only.
//
//   serve_bench [--name=Texas --scale=1.0 --requests=400
//                --nodes_per_request=8 --burst=16 --seed=1]

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

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
  Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  const std::string name = flags.GetString("name", "Texas");
  const double scale = flags.GetDouble("scale", 1.0);
  const int requests = static_cast<int>(flags.GetInt("requests", 400));
  const int nodes_per_request =
      static_cast<int>(flags.GetInt("nodes_per_request", 8));
  const int burst = static_cast<int>(flags.GetInt("burst", 16));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  Result<Dataset> dataset = BuildBenchmarkByName(name, seed, scale);
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
  std::printf("{\n  \"bench\": \"serve\",\n  \"transport\": \"in_process\",\n"
              "  \"build_type\": \"%s\",\n"
              "  \"simd_level\": \"%s\",\n  \"dataset\": \"%s\",\n"
              "  \"nodes\": %lld,\n  \"requests\": %d,\n"
              "  \"nodes_per_request\": %d,\n  \"burst\": %d,\n"
              "  \"runs\": [\n",
              build_type, simd::LevelName(simd::ActiveLevel()),
              dataset->name.c_str(),
              static_cast<long long>(dataset->num_nodes()), requests,
              nodes_per_request, burst);
  const int thread_counts[] = {1, 2, 8};
  for (size_t i = 0; i < 3; ++i) {
    const RunStats stats =
        RunAtThreadCount(*session, thread_counts[i], requests,
                         nodes_per_request, burst, seed + i);
    std::printf("    {\"threads\": %d, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                "\"mean_ms\": %.4f, \"qps\": %.1f, "
                "\"mean_batch_requests\": %.2f}%s\n",
                stats.threads, stats.p50_ms, stats.p99_ms, stats.mean_ms,
                stats.qps, stats.mean_batch_requests, i + 1 < 3 ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) { return adpa::Main(argc, argv); }
