// Serving side of the benchmark: the real epoll server on loopback, an
// open-loop load generator timed from each request's scheduled send time,
// a fixed offered-rate ladder, reload probes, and reply checks against
// in-process Classify.

#include <poll.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/net/framing.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/serve/engine.h"
#include "src/serve/hot_swap.h"
#include "src/serve/jsonl.h"
#include "src/serve/metrics.h"

namespace perfbench {
namespace {

using adpa::Dataset;
using adpa::Result;
using adpa::Status;

constexpr double kSloP99Ms = 2.0;
constexpr int kNodesPerQuery = 8;
constexpr int kCorpusSize = 2000;
constexpr int64_t kReloadIdBase = 1'000'000'000;
constexpr int64_t kWarmupId = 2'000'000'000;
constexpr int kClosedLoopWindow = 32;
constexpr int kRounds = 5;
constexpr auto kReplyTimeout = std::chrono::seconds(5);
constexpr size_t kMaxInFlight = 1024;
// The client wakes this long before a send is due and spins the rest of
// the way: a wake-up from ppoll can land a tenth of a millisecond late.
constexpr auto kWakeEarly = std::chrono::microseconds(200);
// Reference-rate windows: 2,500 queries at the serve workload's 5,000 QPS,
// so each window's p99 has 25 samples beyond it.
constexpr double kReferenceWindowS = 0.5;
constexpr double kRungWindowS = 0.2;

/// Pins the calling thread to `cpu` (-1 leaves it unpinned). The event
/// loop and the client each keep one CPU for the whole run instead of
/// wherever the scheduler last woke them.
void PinToCpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// Restores the calling thread to every CPU in `cpus`.
void Unpin(const std::vector<int>& cpus) {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int cpu : cpus) CPU_SET(cpu, &all);
  pthread_setaffinity_np(pthread_self(), sizeof(all), &all);
}

/// The serving thread's CPU: counted back from the last usable one, so
/// the pool's threads (unpinned) and these two overlap least.
int ServingCpu(const Options& options, int from_last) {
  const int n = static_cast<int>(options.cpus.size());
  return from_last < n ? options.cpus[n - 1 - from_last] : -1;
}

/// The registry, metrics, server and its event-loop thread, torn down in
/// reverse order. The thread is declared last: it uses everything above.
class LiveServer {
 public:
  LiveServer(const Dataset* dataset, int cpu)
      : registry_(dataset, {}), cpu_(cpu) {}
  ~LiveServer() { Stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  Status Start(const std::string& checkpoint_path) {
    Result<adpa::serve::SessionRegistry::ReloadInfo> loaded =
        registry_.Reload(checkpoint_path);
    if (!loaded.ok()) return loaded.status();
    Result<std::unique_ptr<adpa::net::Server>> server =
        adpa::net::Server::Create(adpa::net::ServerOptions{}, &registry_,
                                  &metrics_);
    if (!server.ok()) return server.status();
    server_ = std::move(*server);
    loop_ = std::thread([this] {
      PinToCpu(cpu_);
      loop_status_ = server_->Serve();
    });
    return Status::OK();
  }

  /// Drains and joins the loop; stats() is valid afterwards.
  void Stop() {
    if (loop_.joinable()) {
      server_->RequestStop();
      loop_.join();
    }
  }

  uint16_t port() const { return server_->port(); }
  const adpa::net::ServerStats& stats() const { return server_->stats(); }
  adpa::serve::MetricsSnapshot metrics() const { return metrics_.Snapshot(); }
  const Status& loop_status() const { return loop_status_; }
  int64_t generation() const { return registry_.generation(); }

 private:
  adpa::serve::SessionRegistry registry_;
  adpa::serve::ServeMetrics metrics_;
  const int cpu_;
  std::unique_ptr<adpa::net::Server> server_;
  Status loop_status_;
  std::thread loop_;
};

/// Non-blocking JSONL client over one connection, framed like the server.
/// Open-loop schedules sleep in WaitReadable while nothing is due, rather
/// than spin: a spinning client holds a host core that the server's
/// threads (the event loop, and the pool during a reload) would otherwise
/// get.
class Client {
 public:
  Status Connect(uint16_t port) {
    Result<adpa::net::FdOwner> fd = adpa::net::ConnectTcp("127.0.0.1", port);
    if (!fd.ok()) return fd.status();
    fd_ = std::move(*fd);
    return adpa::net::SetNonBlocking(fd_.get());
  }

  bool Send(const std::string& line) {
    size_t offset = 0;
    while (offset < line.size()) {
      Result<adpa::net::IoResult> io = adpa::net::WriteSome(
          fd_.get(), line.data() + offset, line.size() - offset);
      if (!io.ok() || io->closed) {
        broken_ = true;
        return false;
      }
      offset += static_cast<size_t>(io->bytes);
    }
    return true;
  }

  /// True once the connection closed or failed.
  bool broken() const { return broken_; }

  /// One reply line if one has arrived; false without waiting otherwise.
  bool TryRecv(std::string* line) {
    if (framer_.NextLine(line) == adpa::net::LineFramer::Next::kLine) {
      return true;
    }
    char buffer[16384];
    Result<adpa::net::IoResult> io =
        adpa::net::ReadSome(fd_.get(), buffer, sizeof(buffer));
    if (!io.ok() || io->closed) {
      broken_ = true;
      return false;
    }
    framer_.Append(buffer, static_cast<size_t>(io->bytes));
    return framer_.NextLine(line) == adpa::net::LineFramer::Next::kLine;
  }

  /// Sleeps until the socket is readable or `until`, whichever is first.
  /// Call after TryRecv returned false: the framer holds no whole line.
  void WaitReadable(Clock::time_point until) const {
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           until - Clock::now())
                           .count();
    if (ns <= 0) return;
    const timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                           static_cast<long>(ns % 1'000'000'000)};
    pollfd readable{fd_.get(), POLLIN, 0};
    ::ppoll(&readable, 1, &timeout, nullptr);
  }

  /// One reply line, or false on close, error or `deadline`. Spins: the
  /// closed loop keeps 32 requests in flight, so a reply is always close.
  bool Recv(std::string* line, Clock::time_point deadline) {
    while (!TryRecv(line)) {
      if (broken_ || Clock::now() >= deadline) return false;
    }
    return true;
  }

 private:
  adpa::net::FdOwner fd_;
  adpa::net::LineFramer framer_;
  bool broken_ = false;
};

/// Fixed request corpus: 8-node queries drawn from the seed.
struct Corpus {
  std::vector<std::vector<int64_t>> queries;
  std::vector<std::string> lines;  ///< JSONL with id = corpus index
};

Corpus BuildCorpus(int64_t num_nodes, uint64_t seed) {
  Corpus corpus;
  adpa::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5bd1e995);
  for (int q = 0; q < kCorpusSize; ++q) {
    std::vector<int64_t> nodes(kNodesPerQuery);
    std::string line = "{\"id\": " + std::to_string(q) + ", \"nodes\": [";
    for (int i = 0; i < kNodesPerQuery; ++i) {
      nodes[i] = rng.UniformInt(num_nodes);
      line += (i ? ", " : "") + std::to_string(nodes[i]);
    }
    corpus.lines.push_back(line + "]}\n");
    corpus.queries.push_back(std::move(nodes));
  }
  return corpus;
}

/// In-process answers per checkpoint (Classify over every node) and the
/// Eq. 9 input each checkpoint's session propagates.
struct Expected {
  std::string paths[2];
  std::vector<int64_t> classes[2];
  adpa::PropagationCacheKey keys[2];
};

/// What the client believes the server is serving: the checkpoint slot and
/// registry generation, advanced only by reload acks on this connection.
struct ServingState {
  int slot = 0;
  int64_t generation = 1;
};

/// Checks one reply against the request `id` it answers: a reload to
/// `reload_slot` when that is >= 0, else a query for `nodes`. Returns true
/// for a correct answer; a wrong one is described into `mismatch`.
bool CheckReply(const std::string& line, int64_t id, int reload_slot,
                const std::vector<int64_t>& nodes, const Expected& expected,
                ServingState* state, std::string* mismatch) {
  Result<adpa::serve::ServeReply> reply = adpa::serve::ParseReplyLine(line);
  if (!reply.ok()) {
    *mismatch = "unparseable reply: " + line.substr(0, 120);
    return false;
  }
  if (reply->id != id) {
    *mismatch = "reply id " + std::to_string(reply->id) + " for request " +
                std::to_string(id);
    return false;
  }
  if (reload_slot >= 0) {
    if (reply->kind != adpa::serve::ServeReply::Kind::kReloaded ||
        reply->reloaded_path != expected.paths[reload_slot] ||
        reply->generation != state->generation + 1) {
      *mismatch = "bad reload ack: " + line.substr(0, 160);
      return false;
    }
    state->slot = reload_slot;
    state->generation = reply->generation;
    return true;
  }
  if (reply->kind != adpa::serve::ServeReply::Kind::kClasses) {
    // overloaded / shed / error replies are failures, not mismatches.
    return false;
  }
  bool same = reply->classes.size() == nodes.size();
  for (size_t i = 0; same && i < nodes.size(); ++i) {
    same = reply->classes[i] == expected.classes[state->slot][nodes[i]];
  }
  if (!same) {
    *mismatch = "query " + std::to_string(id) + " classes differ from " +
                "in-process Classify at generation " +
                std::to_string(state->generation);
  }
  return same;
}

/// One scheduled request: a corpus query, or a reload to `slot`.
struct Shot {
  double due_s = 0.0;
  int query = 0;
  int reload_slot = -1;
};

struct ShotResult {
  bool sent = false;
  double latency_ms = 0.0;  ///< reply time minus scheduled send time
  double rtt_ms = 0.0;      ///< reply time minus actual send time
  double late_ms = 0.0;     ///< actual send time minus scheduled send time
  bool ok = false;
};

/// Open loop from the calling thread alone: it sends each shot at its due
/// time whether or not earlier replies arrived, and between sends reads,
/// times and checks the in-order replies. Unanswered shots fail after a
/// grace period; the replies still owed are drained before returning, so
/// the connection is clean for the next schedule.
std::vector<ShotResult> RunSchedule(Client* client,
                                    const std::vector<Shot>& shots,
                                    const Corpus& corpus,
                                    const Expected& expected,
                                    ServingState* state,
                                    std::vector<std::string>* mismatches) {
  std::vector<ShotResult> results(shots.size());
  std::vector<Clock::time_point> sent(shots.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(shots[i].due_s));
  };
  const Clock::time_point give_up = due(shots.size() - 1) + kReplyTimeout;

  size_t next = 0;      // the next shot to send
  size_t received = 0;  // replies read so far, in shot order
  bool sending = true;
  std::string line;
  while (received < next || (sending && next < shots.size())) {
    const Clock::time_point now = Clock::now();
    if (sending && next < shots.size() && now >= due(next)) {
      // Past kMaxInFlight unanswered requests the schedule has clearly
      // outrun the server; stop rather than grow its batches without bound.
      if (next - received > kMaxInFlight) {
        sending = false;
        continue;
      }
      const Shot& shot = shots[next];
      const std::string reload_line =
          shot.reload_slot < 0
              ? std::string()
              : "{\"id\": " + std::to_string(kReloadIdBase + next) +
                    ", \"reload\": \"" + expected.paths[shot.reload_slot] +
                    "\"}\n";
      sent[next] = now;
      results[next].sent = true;
      results[next].late_ms = MsBetween(due(next), now);
      ++next;
      sending = client->Send(shot.reload_slot >= 0 ? reload_line
                                                   : corpus.lines[shot.query]);
      continue;
    }
    if (!client->TryRecv(&line)) {
      if (client->broken() || now >= give_up) break;
      client->WaitReadable(sending && next < shots.size()
                               ? due(next) - kWakeEarly
                               : give_up);
      continue;
    }
    const Clock::time_point at = Clock::now();
    const Shot& shot = shots[received];
    const int64_t id =
        shot.reload_slot >= 0 ? kReloadIdBase + static_cast<int64_t>(received)
                              : shot.query;
    std::string mismatch;
    results[received].ok =
        CheckReply(line, id, shot.reload_slot, corpus.queries[shot.query],
                   expected, state, &mismatch);
    if (!mismatch.empty()) mismatches->push_back(mismatch);
    results[received].latency_ms = MsBetween(due(received), at);
    results[received].rtt_ms = MsBetween(sent[received], at);
    ++received;
  }
  return results;
}

std::vector<Shot> QueryShots(double qps, double seconds, int first_query) {
  const int count = std::max(1, static_cast<int>(qps * seconds));
  std::vector<Shot> shots(count);
  for (int i = 0; i < count; ++i) {
    shots[i].due_s = static_cast<double>(i) / qps;
    shots[i].query = (first_query + i) % kCorpusSize;
  }
  return shots;
}

struct Latencies {
  std::vector<double> query_ms, reload_ms, rtt_ms, late_ms;
  std::vector<double> query_due_s;  ///< schedule time of each query_ms entry
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t unsent = 0;  ///< dropped from a schedule the server fell behind
};

Latencies Collect(const std::vector<Shot>& shots,
                  const std::vector<ShotResult>& results) {
  Latencies out;
  for (size_t i = 0; i < shots.size(); ++i) {
    if (!results[i].sent) {
      ++out.unsent;
      continue;
    }
    ++out.attempted;
    out.late_ms.push_back(results[i].late_ms);
    if (!results[i].ok) {
      ++out.failed;
      continue;
    }
    if (shots[i].reload_slot >= 0) {
      out.reload_ms.push_back(results[i].latency_ms);
    } else {
      out.query_ms.push_back(results[i].latency_ms);
      out.query_due_s.push_back(shots[i].due_s);
      out.rtt_ms.push_back(results[i].rtt_ms);
    }
  }
  return out;
}

/// Per-window latency percentiles over one schedule: windows of
/// `window_s` seconds of scheduled send time.
struct WindowStats {
  std::vector<double> p50;
  std::vector<double> p99;
};

WindowStats Windows(const std::vector<double>& latency_ms,
                    const std::vector<double>& due_s, double window_s) {
  WindowStats stats;
  std::vector<double> window;
  double window_end = window_s;
  for (size_t i = 0; i <= latency_ms.size(); ++i) {
    if (i == latency_ms.size() || due_s[i] >= window_end) {
      if (!window.empty()) {
        stats.p50.push_back(Median(window));
        stats.p99.push_back(Quantile(window, 0.99));
      }
      window.clear();
      while (i < latency_ms.size() && due_s[i] >= window_end) {
        window_end += window_s;
      }
      if (i == latency_ms.size()) break;
    }
    window.push_back(latency_ms[i]);
  }
  return stats;
}

/// The serving measurement against a started `server` whose registry
/// serves `model.paths[0]` at generation 1.
void ServePhase(const Options& options, const ServedModel& model,
                const ServePlan& plan, LiveServer* server,
                bool serving_workload, Trace* trace, RunReport* report) {
  const Dataset& dataset = *model.dataset;
  Expected expected;
  for (int slot = 0; slot < 2; ++slot) {
    expected.paths[slot] = model.paths[slot];
    Result<adpa::Checkpoint> checkpoint = adpa::TryLoadCheckpoint(model.paths[slot]);
    Result<adpa::serve::InferenceSession> session =
        checkpoint.ok() ? adpa::serve::InferenceSession::Create(*checkpoint, dataset)
                        : Result<adpa::serve::InferenceSession>(checkpoint.status());
    std::vector<int64_t> all(dataset.num_nodes());
    for (int64_t v = 0; v < dataset.num_nodes(); ++v) all[v] = v;
    Result<std::vector<int64_t>> classes =
        session.ok() ? session->Classify(all)
                     : Result<std::vector<int64_t>>(session.status());
    if (!classes.ok()) {
      report->Mismatch("in-process reference failed: " +
                       classes.status().ToString());
      return;
    }
    expected.classes[slot] = std::move(*classes);
    expected.keys[slot] = adpa::MakePropagationCacheKey(
        dataset, checkpoint->model_config, checkpoint->patterns);
  }
  const Corpus corpus = BuildCorpus(dataset.num_nodes(), options.seed);

  Client client;
  if (!client.Connect(server->port()).ok()) {
    report->Mismatch("connect failed");
    return;
  }
  ServingState state;
  std::vector<std::string> mismatches;
  std::vector<double> late_ms;
  // This thread is the whole client; it and the event loop have CPUs of
  // their own.
  PinToCpu(ServingCpu(options, 1));

  // Before anything is timed, one query as large as the batcher's largest
  // batch: the event loop's forward workspace (kept per thread, never
  // shrunk) reaches its final size here, so peak_rss_mb does not depend on
  // how many requests a host stall later piles into one batch.
  {
    std::vector<int64_t> nodes(
        adpa::net::ServerOptions{}.batcher.max_batch_nodes);
    std::string line =
        "{\"id\": " + std::to_string(kWarmupId) + ", \"nodes\": [";
    for (size_t i = 0; i < nodes.size(); ++i) {
      nodes[i] = static_cast<int64_t>(i) % dataset.num_nodes();
      line += (i ? ", " : "") + std::to_string(nodes[i]);
    }
    std::string reply;
    std::string mismatch;
    const bool ok = client.Send(line + "]}\n") &&
                    client.Recv(&reply, Clock::now() + kReplyTimeout) &&
                    CheckReply(reply, kWarmupId, -1, nodes, expected, &state,
                               &mismatch);
    if (!mismatch.empty()) mismatches.push_back(mismatch);
    report->Count("serve.warmup", 1, ok ? 0 : 1);
  }

  // The run interleaves rounds of reference stream, closed-loop passes and
  // reload probes, so a stretch of noisy host time (vCPU steal on a shared
  // machine comes in episodes of about a second) touches a minority of
  // each metric's samples; the medians below then ignore it.
  std::vector<double> window_p50, window_p99, all_query_ms, rtt_ms, reload_ms;
  std::vector<double> pass_s, pass_traced_s;
  int64_t reference_queries = 0;
  const double window_s =
      plan.reload_every_s > 0 ? plan.reload_every_s : kReferenceWindowS;
  int first_query = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Reference rate: latency, and reload_ms when reloads ride the stream
    // (one in the middle of every window, so each window's p99 sees one).
    std::vector<Shot> shots = QueryShots(
        plan.reference_qps, plan.reference_seconds / kRounds, first_query);
    first_query = (first_query + static_cast<int>(shots.size())) % kCorpusSize;
    if (plan.reload_every_s > 0) {
      std::vector<Shot> with_reloads;
      double next_reload = 0.5 * plan.reload_every_s;
      int slot = 1 - state.slot;  // reloads alternate between checkpoints
      for (const Shot& shot : shots) {
        if (shot.due_s >= next_reload) {
          with_reloads.push_back(Shot{next_reload, 0, slot});
          slot = 1 - slot;
          next_reload += plan.reload_every_s;
        }
        with_reloads.push_back(shot);
      }
      shots = std::move(with_reloads);
    }
    const Latencies reference = trace->Span("serve.reference", [&] {
      return Collect(shots, RunSchedule(&client, shots, corpus, expected,
                                        &state, &mismatches));
    });
    report->Count("serve.reference", reference.attempted, reference.failed);
    late_ms.insert(late_ms.end(), reference.late_ms.begin(),
                   reference.late_ms.end());
    const WindowStats windows =
        Windows(reference.query_ms, reference.query_due_s, window_s);
    window_p50.insert(window_p50.end(), windows.p50.begin(), windows.p50.end());
    window_p99.insert(window_p99.end(), windows.p99.begin(), windows.p99.end());
    all_query_ms.insert(all_query_ms.end(), reference.query_ms.begin(),
                        reference.query_ms.end());
    rtt_ms.insert(rtt_ms.end(), reference.rtt_ms.begin(),
                  reference.rtt_ms.end());
    reference_queries += static_cast<int64_t>(reference.query_ms.size());
    reload_ms.insert(reload_ms.end(), reference.reload_ms.begin(),
                     reference.reload_ms.end());

    // Reload probes on an otherwise idle connection: request to ack, as
    // the client sees it.
    for (int r = 0; r < plan.quiet_reloads / kRounds; ++r) {
      const std::vector<Shot> probe = {Shot{0.0, 0, 1 - state.slot}};
      const Latencies got = trace->Span("serve.reload_probe", [&] {
        return Collect(probe, RunSchedule(&client, probe, corpus, expected,
                                          &state, &mismatches));
      });
      report->Count("serve.reload", got.attempted, got.failed);
      reload_ms.insert(reload_ms.end(), got.reload_ms.begin(),
                       got.reload_ms.end());
    }

    // Closed loop: one client answering the whole corpus with a fixed
    // window of requests in flight, as a batch client would. Traced runs
    // alternate untraced and traced passes (spans around every send and
    // receive); their ratio is the tracing overhead.
    for (int pass = 0; pass < plan.closed_loop_passes / kRounds; ++pass) {
      Trace off(false);
      Trace* t = trace->enabled() && (pass_s.size() + pass_traced_s.size()) % 2
                     ? trace
                     : &off;
      int64_t failed = 0;
      const Clock::time_point t0 = Clock::now();
      t->Span("job", [&] {
        int sent = 0;
        bool alive = true;
        for (int q = 0; q < kCorpusSize; ++q) {
          while (alive &&
                 sent < std::min(kCorpusSize, q + kClosedLoopWindow)) {
            alive = t->Span("net.send",
                            [&] { return client.Send(corpus.lines[sent]); });
            ++sent;
          }
          std::string mismatch;
          const bool ok = alive && t->Span("net.receive", [&] {
            std::string line;
            return client.Recv(&line, Clock::now() + kReplyTimeout) &&
                   CheckReply(line, q, -1, corpus.queries[q], expected,
                              &state, &mismatch);
          });
          if (!mismatch.empty()) mismatches.push_back(mismatch);
          failed += ok ? 0 : 1;
        }
      });
      (t == trace ? pass_traced_s : pass_s)
          .push_back(SecondsBetween(t0, Clock::now()));
      report->Count("serve.closed_loop", kCorpusSize, failed);
    }
  }
  // Latency at the reference rate is reported, not gated: on a shared
  // host a sub-0.1 ms loopback round trip moved by a third of its median
  // between runs of the same code, and vCPU stalls of several ms, which
  // come in episodes that can cover a whole run, moved even the best
  // window's p99 by 2x. Traced runs print the median window p50 and the
  // whole-stream p99; every run's detail line has the window statistics.
  if (trace->enabled()) {
    report->Layer("client.p50_ms", Median(window_p50), "ms",
                  reference_queries);
    report->Layer("client.p99_ms",
                  Quantile(all_query_ms, TailQuantile(all_query_ms.size())),
                  "ms", reference_queries);
  }
  report->EndToEnd("reload_ms", Median(reload_ms), "ms", reload_ms.size());
  report->Note("reference",
               "{\"offered_qps\": " + std::to_string(plan.reference_qps) +
                   ", \"windows\": " + std::to_string(window_p99.size()) +
                   ", \"window_s\": " + std::to_string(window_s) +
                   ", \"median_window_p50_ms\": " +
                   std::to_string(Median(window_p50)) +
                   ", \"whole_stream_p99_ms\": " +
                   std::to_string(Quantile(all_query_ms, 0.99)) +
                   ", \"best_window_p99_ms\": " +
                   std::to_string(Quantile(window_p99, 0.0)) +
                   ", \"median_window_p99_ms\": " +
                   std::to_string(Median(window_p99)) +
                   ", \"worst_window_p99_ms\": " +
                   std::to_string(window_p99.empty()
                                      ? 0.0
                                      : *std::max_element(window_p99.begin(),
                                                          window_p99.end())) +
                   "}");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB", 1);

  // Fixed offered-rate ladder, lowest rung first, topped per workload at
  // a rate its server sustains in typical runs: host noise moves the true
  // knee by a fifth from run to run, so rungs above it would measure the
  // host. The ladder is a regression gate; a slower server shows as a
  // lower rung. A rung meets the SLO when every request was sent and
  // answered, the median window p50 is within the limit (past capacity the
  // queue grows through most of the rung), and the lower-quartile window
  // p99 (kRungWindowS windows, so host stalls in a few windows do not
  // decide it) is at most 2 ms. A host stall of a few hundred ms misses a
  // rung at any rate, so a missed rung gets a second pass and every rung
  // runs; qps_at_slo is the highest rung met.
  double qps_at_slo = 0.0;
  std::string ladder = "[";
  for (double rate : plan.ladder_qps) {
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<Shot> rung =
          QueryShots(rate, plan.rung_seconds, first_query);
      first_query = (first_query + static_cast<int>(rung.size())) % kCorpusSize;
      const Latencies got = trace->Span("serve.rung", [&] {
        return Collect(rung, RunSchedule(&client, rung, corpus, expected,
                                         &state, &mismatches));
      });
      report->Count("serve.ladder", got.attempted, got.failed);
      late_ms.insert(late_ms.end(), got.late_ms.begin(), got.late_ms.end());
      const WindowStats windows =
          Windows(got.query_ms, got.query_due_s, kRungWindowS);
      const double window_p99 = Quantile(windows.p99, 0.25);
      const bool meets = got.failed == 0 && got.unsent == 0 &&
                         Median(windows.p50) <= kSloP99Ms &&
                         window_p99 <= kSloP99Ms;
      ladder += (ladder.size() > 1 ? ", " : "") +
                std::string("{\"qps\": ") + std::to_string(rate) +
                ", \"window_p99_ms\": " + std::to_string(window_p99) +
                ", \"meets\": " + (meets ? "true" : "false") + "}";
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (meets) {
        qps_at_slo = rate;
        break;
      }
    }
  }
  report->Note("ladder", ladder + "]");
  report->EndToEnd("qps_at_slo", qps_at_slo, "1/s", 1);

  if (serving_workload) {
    int64_t correct_test = 0;
    for (int64_t v : dataset.test_idx) {
      correct_test += expected.classes[0][v] == dataset.labels[v] ? 1 : 0;
    }
    report->EndToEnd("job_s", Median(pass_s), "s", pass_s.size());
    report->EndToEnd("test_acc",
                     static_cast<double>(correct_test) /
                         static_cast<double>(std::max<size_t>(
                             1, dataset.test_idx.size())),
                     "ratio", dataset.test_idx.size());
    if (trace->enabled()) {
      report->Layer("trace.overhead_pct",
                    100.0 * (Median(pass_traced_s) / Median(pass_s) - 1.0),
                    "%", pass_traced_s.size());
      ReportCoverage(*trace, report);
    }
  }

  Unpin(options.cpus);
  server->Stop();
  const adpa::serve::MetricsSnapshot snapshot = server->metrics();
  const adpa::net::ServerStats& stats = server->stats();
  for (const std::string& m : mismatches) report->Mismatch(m);
  if (!server->loop_status().ok()) {
    report->Mismatch("server loop: " + server->loop_status().ToString());
  }
  if (trace->enabled() && serving_workload) {
    // The registry built one session per generation, alternating slots,
    // and each replayed Eq. 9 (default EngineOptions: no sidecar cache).
    PropagationLedger ledger;
    for (int64_t g = 1; g <= server->generation(); ++g) {
      ledger.Record(expected.keys[(g - 1) % 2]);
    }
    report->Layer("sweep.propagations", static_cast<double>(ledger.total()),
                  "count");
    report->Layer("sweep.distinct_keys",
                  static_cast<double>(ledger.distinct()), "count");
  }
  if (trace->enabled()) {
    report->Layer("serve.batcher_ms_p50", snapshot.p50_latency_ms, "ms",
                  snapshot.requests);
    report->Layer("serve.batcher_ms_p99", snapshot.p99_latency_ms, "ms",
                  snapshot.requests);
    report->Layer("serve.batch_requests_mean", snapshot.mean_batch_requests,
                  "count", snapshot.batches);
    report->Layer("serve.max_queue_depth",
                  static_cast<double>(snapshot.max_queue_depth), "count");
    report->Layer("net.rtt_minus_batcher_ms_p50",
                  Median(rtt_ms) - snapshot.p50_latency_ms, "ms",
                  rtt_ms.size());
    report->Layer("net.dropped", static_cast<double>(stats.dropped), "count");
    report->Layer("net.io_errors", static_cast<double>(stats.io_errors),
                  "count");
    report->Layer("gen.late_ms_p99", Quantile(late_ms, 0.99), "ms",
                  late_ms.size());
  }
}

}  // namespace

void RunServePhase(const Options& options, const ServedModel& model,
                   const ServePlan& plan, Trace* trace, RunReport* report) {
  LiveServer server(model.dataset, ServingCpu(options, 0));
  const Status started = server.Start(model.paths[0]);
  if (!started.ok()) {
    report->Mismatch("server start failed: " + started.ToString());
    return;
  }
  ServePhase(options, model, plan, &server, false, trace, report);
}

void ReplayRequestPath(const Options& options,
                       const adpa::serve::InferenceSession& session,
                       const Dataset& dataset, Trace* trace,
                       RunReport* report) {
  const Corpus corpus = BuildCorpus(dataset.num_nodes(), options.seed);
  const double n = static_cast<double>(corpus.lines.size());

  trace->Span("jsonl.parse", [&] {
    for (const std::string& line : corpus.lines) {
      // The framer strips the newline before the server parses.
      if (!adpa::serve::ParseRequestLine(line.substr(0, line.size() - 1)).ok()) {
        report->Mismatch("corpus line does not parse");
      }
    }
  });
  report->Layer("jsonl.parse_us",
                1000.0 * trace->DurationMs(trace->Last("jsonl.parse")) / n, "us",
                corpus.lines.size());

  std::string stream;
  for (const std::string& line : corpus.lines) stream += line;
  trace->Span("net.frame", [&] {
    adpa::net::LineFramer framer;
    std::string line;
    int64_t lines = 0;
    for (size_t offset = 0; offset < stream.size(); offset += 1460) {
      framer.Append(stream.data() + offset,
                    std::min<size_t>(1460, stream.size() - offset));
      while (framer.NextLine(&line) == adpa::net::LineFramer::Next::kLine) {
        ++lines;
      }
    }
    if (lines != static_cast<int64_t>(corpus.lines.size())) {
      report->Mismatch("LineFramer lost lines");
    }
  });
  report->Layer("net.frame_us",
                1000.0 * trace->DurationMs(trace->Last("net.frame")) / n, "us",
                corpus.lines.size());

  std::vector<double> classify_us;
  std::vector<std::vector<int64_t>> answers;
  for (const std::vector<int64_t>& nodes : corpus.queries) {
    const Clock::time_point t0 = Clock::now();
    Result<std::vector<int64_t>> classes = session.Classify(nodes);
    classify_us.push_back(1000.0 * MsBetween(t0, Clock::now()));
    if (!classes.ok()) {
      report->Mismatch("Classify: " + classes.status().ToString());
      return;
    }
    answers.push_back(std::move(*classes));
  }
  const double q = TailQuantile(classify_us.size());
  report->Layer("serve.classify_us_p50", Median(classify_us), "us",
                classify_us.size());
  report->Layer("serve.classify_us_p99", Quantile(classify_us, q), "us",
                classify_us.size());

  trace->Span("jsonl.format", [&] {
    size_t bytes = 0;
    for (size_t i = 0; i < answers.size(); ++i) {
      bytes += adpa::serve::FormatClassesReply(static_cast<int64_t>(i),
                                               answers[i]).size();
    }
    return bytes;
  });
  report->Layer("jsonl.format_us",
                1000.0 * trace->DurationMs(trace->Last("jsonl.format")) / n, "us",
                answers.size());
}

namespace {

/// Shared body of the two serving workloads: set-up (dataset, two fresh
/// checkpoints, session load, server start) kSetupRepeats times, the AMUD
/// check, the traced layer replay, then the serving measurement.
void RunServingWorkload(const Options& options, const PipelineSpec& spec,
                       const ServePlan& plan, RunReport* report) {
  Dataset natural;
  ServedModel served{&natural,
                     {options.work_dir + "/serve-a.ckpt",
                      options.work_dir + "/serve-b.ckpt"}};
  std::unique_ptr<LiveServer> server;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();  // the previous server references `natural`
    const Clock::time_point t0 = Clock::now();
    Result<Dataset> built =
        adpa::BuildBenchmarkByName(spec.dataset, kPipelineSeed,
                                   spec.scale);
    report->Count("setup", 1, built.ok() ? 0 : 1);
    if (!built.ok()) {
      report->Mismatch("dataset build failed: " + built.status().ToString());
      return;
    }
    natural = std::move(*built);
    if (!SaveFreshModel(natural, spec.model, kPipelineSeed,
                        served.paths[0], report) ||
        !SaveFreshModel(natural, spec.model, kPipelineSeed + 1,
                        served.paths[1], report)) {
      return;
    }
    server = std::make_unique<LiveServer>(&natural, ServingCpu(options, 0));
    const Status started = server->Start(served.paths[0]);
    if (!started.ok()) {
      report->Mismatch("server start failed: " + started.ToString());
      return;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  report->Note("dataset", "{\"name\": \"" + spec.dataset +
                              "\", \"scale\": " + std::to_string(spec.scale) +
                              ", \"nodes\": " +
                              std::to_string(natural.num_nodes()) +
                              ", \"edges\": " +
                              std::to_string(natural.num_edges()) + "}");

  // The served graph is the natural one, so AMUD must keep it directed.
  Trace trace(options.trace);
  Dataset work;
  if (!AmudStage(natural, spec.dataset, &trace, report, &work)) return;
  if (options.trace) RunLayerReplay(options, spec, natural, &trace, report);
  ServePhase(options, served, plan, server.get(), true, &trace, report);
  if (options.trace) {
    trace.Dump(options.work_dir + "/spans-" + options.workload + ".jsonl");
  }
}

}  // namespace

void RunServe(const Options& options, RunReport* report) {
  PipelineSpec spec;
  spec.dataset = "Texas";
  spec.scale = 1.0;
  ServePlan plan;
  plan.reference_qps = 5000;
  plan.reference_seconds = 0.3 * options.seconds;
  plan.ladder_qps = {1000, 2000, 4000, 6000, 8000, 10000, 12000, 14000,
                     16000};
  plan.rung_seconds = 0.0375 * options.seconds;
  plan.quiet_reloads = 20;
  plan.closed_loop_passes = 40;
  RunServingWorkload(options, spec, plan, report);
}

void RunServeReload(const Options& options, RunReport* report) {
  PipelineSpec spec;
  spec.dataset = "Squirrel";
  spec.scale = 10.0;
  spec.model.propagation_steps = 3;
  ServePlan plan;
  plan.reference_qps = 1000;
  plan.reference_seconds = 0.5 * options.seconds;
  plan.reload_every_s = 1.0;
  plan.ladder_qps = {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000};
  plan.rung_seconds = 0.03 * options.seconds;
  // Twenty quiet probes beside the reloads that ride the stream: single
  // reloads scatter by a quarter within a run, and a run shorter than
  // 5 s would put no reload in the stream at all.
  plan.quiet_reloads = 20;
  plan.closed_loop_passes = 15;
  RunServingWorkload(options, spec, plan, report);
}

}  // namespace perfbench
