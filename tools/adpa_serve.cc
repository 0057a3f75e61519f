// adpa_serve — JSON-lines inference server over a trained checkpoint.
//
//   adpa_cli train --in=g.txt --save_checkpoint=m.ckpt
//   adpa_serve --checkpoint=m.ckpt --in=g.txt < queries.jsonl > replies.jsonl
//
// Protocol: one request object per line, one reply per line, in request
// order. Requests are {"id": 7, "nodes": [0, 12, 3]} with an optional
// "deadline_ms"; replies are {"id":7,"classes":[1,0,2]},
// {"id":7,"error":"..."}, or — when the request was rejected at a full
// queue or shed past its deadline — the structured retry shape
// {"id":7,"error":"overloaded","detail":"..."}. The admin request
// {"reload": "/path/to/model.ckpt"} hot-swaps the serving checkpoint
// without dropping a request (SIGHUP re-reads the current checkpoint
// path). A request line longer than the framing cap (1 MiB) gets one
// framing-error reply and ends the session.
//
// By default stdin/stdout is the one connection: the process exits once
// stdin reaches EOF and every reply is written. With --listen=HOST:PORT
// it serves many concurrent TCP connections instead; port 0 binds an
// ephemeral port, announced on stderr as "listening on HOST:PORT". Both
// run the same epoll event loop (src/net/server.h). At exit a metrics
// summary (latency percentiles, QPS, batching and shedding counters) goes
// to stderr, keeping stdout byte-stable for golden comparisons.
//
// Shutdown: SIGTERM/SIGINT drain — stop accepting and reading, answer
// every request already received, flush, exit 0. SIGPIPE is ignored so a
// vanished reader surfaces as a write error instead of killing the process.
//
// Flags:
//   --listen=HOST:PORT    serve over TCP instead of stdin/stdout
//   --no_reload           refuse {"reload": ...} admin requests and ignore
//                         SIGHUP
//   --idle_timeout_ms=N   close connections idle for N ms (0 = never, the
//                         default)
//   --stall_timeout_ms=N  drop connections whose request line has been
//                         incomplete for N ms (slow-loris defense; 0 =
//                         never, the default)
//   --checkpoint=F        trained model (required)
//   --in=F                the dataset the model was trained on (required)
//   --undirect            mirror the training run's --undirect
//   --cache=F             sidecar file for the Eq. 9 propagation precompute
//   --max_batch_nodes=N   node cap per coalesced forward (default 4096)
//   --max_queue_depth=N   pending-request ceiling before Submit is rejected
//                         with "overloaded" (default 4096)
//   --threads=N           kernel thread count (0 = auto)
//   --simd_level=<portable|avx2|avx512>
//                         pin the kernel dispatch level (default: fastest
//                         level the CPU supports)
// Unknown flags are ignored.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include <unistd.h>

#include "src/core/flags.h"
#include "src/core/parallel.h"
#include "src/data/io.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/serve/hot_swap.h"
#include "src/serve/metrics.h"
#include "src/tensor/simd.h"

namespace adpa {
namespace {

/// Signals wake the event loop through its self-pipe once the server
/// exists; a stop signal that lands earlier (during the dataset load and
/// Eq. 9 propagation) is only recorded, and main() replays it as soon as
/// the wake fd is published. The flag store and the single-byte write are
/// both async-signal-safe.
volatile std::sig_atomic_t g_shutdown_signal = 0;
volatile std::sig_atomic_t g_server_wake_fd = -1;

extern "C" void HandleServerSignal(int signal_number) {
  if (signal_number != SIGHUP) g_shutdown_signal = signal_number;
  const int fd = g_server_wake_fd;
  if (fd < 0) return;
  const char command = signal_number == SIGHUP ? 'H' : 'T';
  const ssize_t wrote = ::write(fd, &command, 1);
  (void)wrote;  // a full wake pipe already has a wakeup queued
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintMetricsSummary(const serve::ServeMetrics& metrics,
                         double elapsed_s) {
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  std::fprintf(stderr,
               "served %llu requests (%llu errors, %llu nodes) in %llu "
               "batches; mean batch %.2f req; latency ms p50 %.3f p99 %.3f "
               "mean %.3f; %.1f req/s; max queue depth %lld; rejected %llu; "
               "shed %llu\n",
               static_cast<unsigned long long>(snapshot.requests),
               static_cast<unsigned long long>(snapshot.errors),
               static_cast<unsigned long long>(snapshot.nodes),
               static_cast<unsigned long long>(snapshot.batches),
               snapshot.mean_batch_requests, snapshot.p50_latency_ms,
               snapshot.p99_latency_ms, snapshot.mean_latency_ms,
               elapsed_s > 0.0 ? static_cast<double>(snapshot.requests) /
                                     elapsed_s
                               : 0.0,
               static_cast<long long>(snapshot.max_queue_depth),
               static_cast<unsigned long long>(snapshot.rejected),
               static_cast<unsigned long long>(snapshot.shed));
}

int Usage() {
  std::fprintf(stderr,
               "usage: adpa_serve --checkpoint=F --in=F [--undirect]\n"
               "                  [--listen=HOST:PORT] [--no_reload\n"
               "                  --idle_timeout_ms=N --stall_timeout_ms=N]\n"
               "                  [--cache=F --max_batch_nodes=N\n"
               "                  --max_queue_depth=N --threads=N\n"
               "                  --simd_level=<portable|avx2|avx512>]\n"
               "reads JSON-lines requests from stdin, writes replies to "
               "stdout;\n"
               "with --listen, serves the same protocol over TCP (port 0 =\n"
               "ephemeral; the bound address is printed to stderr);\n"
               "{\"reload\": \"path\"} hot-swaps the checkpoint (SIGHUP\n"
               "re-reads the current one);\n"
               "SIGTERM/SIGINT drain in-flight requests and exit 0\n");
  return 2;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) return Usage();
  const std::string checkpoint_path = flags.GetString("checkpoint", "");
  const std::string dataset_path = flags.GetString("in", "");
  if (checkpoint_path.empty() || dataset_path.empty()) return Usage();
  if (flags.Has("threads")) {
    SetNumThreads(static_cast<int>(flags.GetInt("threads", 0)));
  }
  // Resolve the dispatch level eagerly so a bad ADPA_SIMD_LEVEL aborts at
  // startup instead of on the first kernel call.
  simd::ActiveLevel();
  if (flags.Has("simd_level")) {
    const std::string level_name = flags.GetString("simd_level", "");
    simd::Level level;
    if (!simd::ParseLevel(level_name, &level)) {
      std::fprintf(stderr, "error: unknown --simd_level=%s\n",
                   level_name.c_str());
      return Usage();
    }
    if (!simd::LevelSupported(level)) {
      std::fprintf(stderr, "error: --simd_level=%s not supported by this CPU\n",
                   level_name.c_str());
      return 1;
    }
    simd::SetLevel(level);
  }

  net::ServerOptions options;
  options.batcher.max_batch_nodes = flags.GetInt("max_batch_nodes", 4096);
  options.batcher.max_queue_depth = flags.GetInt("max_queue_depth", 4096);
  options.allow_reload = !flags.Has("no_reload");
  options.idle_timeout_ms = flags.GetInt("idle_timeout_ms", 0);
  options.stall_timeout_ms = flags.GetInt("stall_timeout_ms", 0);
  const bool tcp = flags.Has("listen");
  if (tcp) {
    Result<net::HostPort> listen =
        net::ParseHostPort(flags.GetString("listen", ""));
    if (!listen.ok()) return Fail(listen.status());
    options.host = listen->host;
    options.port = listen->port;
  }

  // Installed before the slow startup so no stop signal is lost. No
  // SA_RESTART: epoll_wait must wake.
  struct sigaction wake_action {};
  wake_action.sa_handler = HandleServerSignal;
  sigemptyset(&wake_action.sa_mask);
  wake_action.sa_flags = 0;
  sigaction(SIGTERM, &wake_action, nullptr);
  sigaction(SIGINT, &wake_action, nullptr);
  sigaction(SIGHUP, &wake_action, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  Result<Dataset> dataset = LoadDataset(dataset_path);
  if (!dataset.ok()) return Fail(dataset.status());
  const Dataset input = flags.GetBool("undirect", false)
                            ? dataset->WithUndirectedGraph()
                            : std::move(*dataset);

  serve::EngineOptions engine_options;
  engine_options.propagation_cache_path = flags.GetString("cache", "");
  serve::SessionRegistry registry(&input, engine_options);
  const Result<serve::SessionRegistry::ReloadInfo> initial =
      registry.Reload(checkpoint_path);
  if (!initial.ok()) return Fail(initial.status());
  const std::shared_ptr<const serve::InferenceSession> session =
      registry.Current();
  std::fprintf(stderr,
               "serving %s on %s: %lld nodes, %lld classes, propagation %s\n",
               initial->model_name.c_str(), input.name.c_str(),
               static_cast<long long>(session->num_nodes()),
               static_cast<long long>(session->num_classes()),
               initial->used_propagation_cache ? "cache hit" : "computed");

  serve::ServeMetrics metrics;
  Result<std::unique_ptr<net::Server>> server =
      tcp ? net::Server::Create(options, &registry, &metrics)
          : net::Server::CreateStdio(options, &registry, &metrics,
                                     STDIN_FILENO, STDOUT_FILENO);
  if (!server.ok()) return Fail(server.status());
  if (tcp) {
    std::fprintf(stderr, "listening on %s:%u\n",
                 options.host.empty() || options.host == "*"
                     ? "0.0.0.0"
                     : options.host.c_str(),
                 static_cast<unsigned>((*server)->port()));
    std::fflush(stderr);  // harnesses grep the announced port immediately
  }

  // Publish the wake fd, then replay a stop signal that arrived during
  // startup: one that lands after the store writes to the pipe itself.
  g_server_wake_fd = (*server)->wake_fd();
  if (g_shutdown_signal != 0) (*server)->RequestStop();
  const auto serve_start = std::chrono::steady_clock::now();
  const Status status = (*server)->Serve();
  g_server_wake_fd = -1;
  if (!status.ok()) return Fail(status);
  if (g_shutdown_signal != 0) {
    std::fprintf(stderr,
                 "draining: received signal %d; in-flight requests "
                 "answered, exiting cleanly\n",
                 static_cast<int>(g_shutdown_signal));
  }

  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serve_start)
          .count();
  const net::ServerStats& stats = (*server)->stats();
  std::fprintf(stderr,
               "connections: %llu accepted, %llu closed by peer, %llu "
               "dropped, %llu io errors, %llu over capacity, %llu idle "
               "closed, %llu stall dropped, %llu fd exhausted; reloads: "
               "%llu ok, %llu failed (generation %lld)\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.closed_by_peer),
               static_cast<unsigned long long>(stats.dropped),
               static_cast<unsigned long long>(stats.io_errors),
               static_cast<unsigned long long>(stats.over_capacity),
               static_cast<unsigned long long>(stats.idle_closed),
               static_cast<unsigned long long>(stats.stall_dropped),
               static_cast<unsigned long long>(stats.fd_exhausted),
               static_cast<unsigned long long>(stats.reloads),
               static_cast<unsigned long long>(stats.reload_failures),
               static_cast<long long>(registry.generation()));
  PrintMetricsSummary(metrics, elapsed_s);
  return 0;
}

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) { return adpa::Main(argc, argv); }
