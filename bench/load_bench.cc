// load_bench — sustained-load benchmark for the TCP serving path.
//
// Self-hosted: builds a registry benchmark, snapshots a freshly initialized
// ADPA model to a temporary checkpoint, loads it into a SessionRegistry,
// and starts the real epoll Server (src/net/server.h) on an ephemeral
// loopback port — the full production stack, kernel sockets included, with
// no external orchestration.
//
// Two load shapes, both measured from the client side:
//
//  * closed loop — C connections, each sending one request and waiting for
//    its reply before the next. Reports per-connection-count QPS and
//    p50/p99 round-trip latency. Closed loops understate tail latency under
//    saturation (a slow reply throttles the offered load), so they bound
//    capacity, not user-visible latency.
//  * open loop — requests are pipelined on a schedule at a fixed offered
//    rate, and each latency is measured from the request's SCHEDULED send
//    time, not the actual write: a server stall makes every queued request
//    look as slow as a real user would see it (no coordinated omission).
//    The rate ladder is derived from the closed-loop capacity, and the
//    report's headline number is `sustained_qps_at_slo`: the highest
//    achieved rate whose open-loop p99 stays under --slo_p99_ms.
//
// Emits a JSON report merged into BENCH_serve.json by tools/bench_to_json.sh
// (rows carry `"transport": "tcp"`; the in-process serve_bench rows carry
// `"transport": "in_process"`).
//
// The kernel pool defaults to 8 threads, or to the host's online CPUs when
// it has fewer; the report records both the pool width and the CPU count.
//
//   load_bench [--name=Texas --scale=1.0 --nodes_per_request=8
//               --requests_per_connection=1000 --open_loop_seconds=2
//               --slo_p99_ms=2.0 --threads=8 --seed=1]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/core/flags.h"
#include "src/core/logging.h"
#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/net/framing.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/serve/hot_swap.h"
#include "src/serve/metrics.h"
#include "src/tensor/simd.h"

namespace adpa {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Blocking JSONL client over one TCP connection: write whole lines, read
/// whole reply lines through the same LineFramer the server uses.
class BenchClient {
 public:
  BenchClient(const std::string& host, uint16_t port)
      : framer_(net::LineFramer::kDefaultMaxLineBytes) {
    Result<net::FdOwner> fd = net::ConnectTcp(host, port);
    ADPA_CHECK(fd.ok()) << fd.status().ToString();
    fd_ = std::move(*fd);
  }

  void Send(const std::string& line) {
    size_t offset = 0;
    while (offset < line.size()) {
      Result<net::IoResult> io =
          net::WriteSome(fd_.get(), line.data() + offset,
                         line.size() - offset);
      ADPA_CHECK(io.ok()) << io.status().ToString();
      ADPA_CHECK(!io->closed) << "server closed the connection mid-send";
      offset += static_cast<size_t>(io->bytes);
    }
  }

  /// Blocks until one full reply line is available.
  std::string RecvLine() {
    std::string line;
    char buffer[16384];
    while (true) {
      if (framer_.NextLine(&line) == net::LineFramer::Next::kLine) {
        return line;
      }
      Result<net::IoResult> io =
          net::ReadSome(fd_.get(), buffer, sizeof(buffer));
      ADPA_CHECK(io.ok()) << io.status().ToString();
      ADPA_CHECK(!io->closed) << "server closed the connection mid-reply";
      framer_.Append(buffer, static_cast<size_t>(io->bytes));
    }
  }

 private:
  net::FdOwner fd_;
  net::LineFramer framer_;
};

/// A deterministic pool of query lines cycled by every worker.
std::vector<std::string> BuildQueries(int64_t num_nodes, int nodes_per_request,
                                      uint64_t seed, int pool_size) {
  Rng rng(seed);
  std::vector<std::string> pool;
  pool.reserve(pool_size);
  for (int q = 0; q < pool_size; ++q) {
    std::string line = "{\"id\": " + std::to_string(q) + ", \"nodes\": [";
    for (int i = 0; i < nodes_per_request; ++i) {
      if (i > 0) line += ", ";
      line += std::to_string(rng.UniformInt(num_nodes));
    }
    line += "]}\n";
    pool.push_back(std::move(line));
  }
  return pool;
}

struct LoadStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t requests = 0;
};

LoadStats Summarize(std::vector<double> latencies_ms, double elapsed_s) {
  LoadStats stats;
  stats.requests = latencies_ms.size();
  if (latencies_ms.empty()) return stats;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto pct = [&](double p) {
    const size_t index = static_cast<size_t>(
        p * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[index];
  };
  stats.p50_ms = pct(0.50);
  stats.p99_ms = pct(0.99);
  stats.qps = elapsed_s > 0.0
                  ? static_cast<double>(latencies_ms.size()) / elapsed_s
                  : 0.0;
  return stats;
}

/// C connections, each a request/reply lockstep loop.
LoadStats RunClosedLoop(const std::string& host, uint16_t port,
                        const std::vector<std::string>& queries,
                        int connections, int requests_per_connection) {
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::thread> workers;
  workers.reserve(connections);
  const auto start = Clock::now();
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      BenchClient client(host, port);
      std::vector<double>& out = latencies[c];
      out.reserve(requests_per_connection);
      for (int i = 0; i < requests_per_connection; ++i) {
        const std::string& query =
            queries[(c * requests_per_connection + i) % queries.size()];
        const auto t0 = Clock::now();
        client.Send(query);
        (void)client.RecvLine();
        out.push_back(MsSince(t0, Clock::now()));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  for (const std::vector<double>& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  return Summarize(std::move(all), elapsed_s);
}

struct OpenLoopStats {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t requests = 0;
};

/// One pipelined connection: a sender thread pushes requests on a fixed
/// schedule, a reader thread timestamps each in-order reply. Latency is
/// (reply time − scheduled send time) — a stalled server makes every
/// queued request look slow, exactly as a real user would see it.
OpenLoopStats RunOpenLoop(const std::string& host, uint16_t port,
                          const std::vector<std::string>& queries,
                          double offered_qps, double duration_s) {
  const int total =
      std::max(1, static_cast<int>(offered_qps * duration_s));
  const std::chrono::nanoseconds interval(
      static_cast<int64_t>(1e9 / offered_qps));

  BenchClient client(host, port);
  const auto start = Clock::now();
  std::vector<Clock::time_point> received(total);

  std::thread reader([&] {
    for (int i = 0; i < total; ++i) {
      (void)client.RecvLine();
      received[i] = Clock::now();
    }
  });
  for (int i = 0; i < total; ++i) {
    // No catch-up skipping: if the sender falls behind (socket backpressure)
    // later requests still carry their original schedule, so the backlog
    // shows up as latency rather than silently lowering the offered rate.
    std::this_thread::sleep_until(start + interval * i);
    client.Send(queries[i % queries.size()]);
  }
  reader.join();

  std::vector<double> latencies(total);
  for (int i = 0; i < total; ++i) {
    latencies[i] = MsSince(start + interval * i, received[i]);
  }
  const double elapsed_s =
      std::chrono::duration<double>(received[total - 1] - start).count();

  OpenLoopStats stats;
  const LoadStats base = Summarize(std::move(latencies), elapsed_s);
  stats.offered_qps = offered_qps;
  stats.achieved_qps = base.qps;
  stats.p50_ms = base.p50_ms;
  stats.p99_ms = base.p99_ms;
  stats.requests = base.requests;
  return stats;
}

int Main(int argc, char** argv) {
  // A request's node count shares ParseRequestLine's cap.
  constexpr int64_t kMaxRequestNodes = int64_t{1} << 20;
  const int nproc =
      std::max(1, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
  const auto positive = [](double v) { return v > 0.0; };
  Flags flags;
  const bool parsed = flags.Parse(argc, argv);
  const std::string name = flags.GetString("name", "Texas");
  const std::optional<double> scale =
      RealFlag(flags, "scale", 1.0, positive, "scale > 0");
  const std::optional<int64_t> nodes_flag =
      CountFlag(flags, "nodes_per_request", 8, 1, kMaxRequestNodes);
  const std::optional<int64_t> requests_flag =
      CountFlag(flags, "requests_per_connection", 1000, 1, kMaxCount);
  const std::optional<double> open_loop_seconds = RealFlag(
      flags, "open_loop_seconds", 2.0, positive, "open_loop_seconds > 0");
  const std::optional<double> slo_p99_ms =
      RealFlag(flags, "slo_p99_ms", 2.0, positive, "slo_p99_ms > 0");
  const std::optional<int64_t> threads_flag =
      CountFlag(flags, "threads", std::min(8, nproc), 0, kMaxThreads);
  const std::optional<int64_t> seed_flag =
      CountFlag(flags, "seed", 1, 0, kMaxSeed);
  if (!parsed || !scale || !nodes_flag || !requests_flag ||
      !open_loop_seconds || !slo_p99_ms || !threads_flag || !seed_flag ||
      !AllFlagsRead(flags)) {
    std::fprintf(stderr, "usage: load_bench [--name=S --scale=F "
                         "--nodes_per_request=N --requests_per_connection=N\n"
                         "  --open_loop_seconds=F --slo_p99_ms=F --threads=N "
                         "--seed=N]\n");
    return 2;
  }
  const int nodes_per_request = static_cast<int>(*nodes_flag);
  const int requests_per_connection = static_cast<int>(*requests_flag);
  const int threads = static_cast<int>(*threads_flag);
  const uint64_t seed = static_cast<uint64_t>(*seed_flag);

  Result<Dataset> dataset = BuildBenchmarkByName(name, seed, *scale);
  ADPA_CHECK(dataset.ok()) << dataset.status().ToString();
  Rng rng(seed);
  ModelConfig config;
  Result<ModelPtr> model = CreateModel("ADPA", *dataset, config, &rng);
  ADPA_CHECK(model.ok()) << model.status().ToString();
  const Checkpoint checkpoint =
      MakeCheckpoint(**model, "ADPA", *dataset, config, TrainConfig());
  const std::string ckpt_path =
      "/tmp/adpa_load_bench_" + std::to_string(::getpid()) + ".ckpt";
  Status saved = SaveCheckpoint(checkpoint, ckpt_path);
  ADPA_CHECK(saved.ok()) << saved.ToString();

  SetNumThreads(threads);
  serve::SessionRegistry registry(&*dataset, serve::EngineOptions{});
  Result<serve::SessionRegistry::ReloadInfo> loaded =
      registry.Reload(ckpt_path);
  ADPA_CHECK(loaded.ok()) << loaded.status().ToString();

  serve::ServeMetrics metrics;
  net::ServerOptions options;  // ephemeral loopback port
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Create(options, &registry, &metrics);
  ADPA_CHECK(server.ok()) << server.status().ToString();
  std::thread loop([&] {
    const Status status = (*server)->Serve();
    ADPA_CHECK(status.ok()) << status.ToString();
  });
  const uint16_t port = (*server)->port();

  const std::vector<std::string> queries = BuildQueries(
      dataset->num_nodes(), nodes_per_request, seed, /*pool_size=*/256);

#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::printf("{\n  \"bench\": \"serve_load\",\n  \"transport\": \"tcp\",\n"
              "  \"build_type\": \"%s\",\n  \"nproc\": %d,\n"
              "  \"simd_level\": \"%s\",\n"
              "  \"dataset\": \"%s\",\n  \"nodes\": %lld,\n"
              "  \"threads\": %d,\n  \"nodes_per_request\": %d,\n"
              "  \"slo_p99_ms\": %.2f,\n  \"closed_loop\": [\n",
              build_type, nproc, simd::LevelName(simd::ActiveLevel()),
              dataset->name.c_str(),
              static_cast<long long>(dataset->num_nodes()), threads,
              nodes_per_request, *slo_p99_ms);

  const int connection_counts[] = {1, 4, 16};
  double capacity_qps = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    const LoadStats stats =
        RunClosedLoop("127.0.0.1", port, queries, connection_counts[i],
                      requests_per_connection);
    capacity_qps = std::max(capacity_qps, stats.qps);
    std::printf("    {\"connections\": %d, \"requests\": %llu, "
                "\"qps\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                connection_counts[i],
                static_cast<unsigned long long>(stats.requests), stats.qps,
                stats.p50_ms, stats.p99_ms, i + 1 < 3 ? "," : "");
  }

  // Binary search for the saturation knee: the highest offered rate whose
  // open-loop p99 meets the SLO. The closed-loop capacity bounds the search
  // from above (an open loop past it can only build queue), and every probe
  // is reported so the latency-vs-rate curve is visible in the JSON.
  std::printf("  ],\n  \"open_loop\": [\n");
  const int kProbes = 6;
  double lo_qps = 0.0;
  double hi_qps = capacity_qps;
  double sustained_qps = 0.0;
  for (int i = 0; i < kProbes; ++i) {
    const double offered = i == 0 ? hi_qps : 0.5 * (lo_qps + hi_qps);
    const OpenLoopStats stats =
        RunOpenLoop("127.0.0.1", port, queries, offered, *open_loop_seconds);
    const bool meets_slo = stats.p99_ms <= *slo_p99_ms;
    if (meets_slo) {
      lo_qps = offered;
      sustained_qps = std::max(sustained_qps, stats.achieved_qps);
    } else {
      hi_qps = offered;
    }
    std::printf("    {\"offered_qps\": %.1f, \"achieved_qps\": %.1f, "
                "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"meets_slo\": %s}%s\n",
                stats.offered_qps, stats.achieved_qps, stats.p50_ms,
                stats.p99_ms, meets_slo ? "true" : "false",
                i + 1 < kProbes ? "," : "");
  }
  std::printf("  ],\n  \"sustained_qps_at_slo\": %.1f\n}\n", sustained_qps);

  (*server)->RequestStop();
  loop.join();
  std::remove(ckpt_path.c_str());
  return 0;
}

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) { return adpa::Main(argc, argv); }
