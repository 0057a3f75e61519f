// soak_harness — invariant-checking mixed-workload client (DESIGN.md §15).
//
// Drives adpa_serve (usually through tools/chaos_proxy) with concurrent
// connections sending a mix of queries and {"reload": ...} admin requests,
// and checks the serving invariants that ADPA's decoupled precompute/serve
// split makes strong enough to assert bitwise:
//
//   1. every complete reply line parses under the restricted JSONL grammar
//      (serve::ParseReplyLine — the read-side mirror of the formatters);
//   2. reply ids are strictly increasing per connection (in-order replies);
//   3. every classes reply is byte-identical to the fault-free golden for
//      its query pattern (the forward is stateless per batch, so faults
//      may *drop* or *error* a request but never change an answer);
//   4. structured degradation only: errors and overloaded replies are
//      tolerated and counted, crashes and garbage are not.
//
// (Invariant 0 — the server process never dies — and invariant 5 — peak
// RSS stays bounded — are checked by tools/soak.sh, which owns the server
// process.)
//
// Two modes:
//   --record_golden   connect directly to a fault-free server, evaluate
//                     every query pattern once, write --golden=FILE;
//   (default)         soak for --seconds against --connect, checking every
//                     classes reply against the recorded golden.
//
// Queries are drawn from a fixed pattern pool derived only from the
// pattern index (never from --seed), so goldens recorded once are valid
// for every chaos seed. Exit code 0 iff all invariants held and at least
// --min_ok classes replies were observed.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>

#include "src/core/flags.h"
#include "src/core/random.h"
#include "src/core/status.h"
#include "src/net/framing.h"
#include "src/net/socket.h"
#include "src/serve/jsonl.h"

namespace adpa {
namespace {

using Clock = std::chrono::steady_clock;

/// Query pool: pattern -> node list, a pure function of the pattern index
/// so record and soak phases agree across seeds and processes.
std::vector<int64_t> PatternNodes(int64_t pattern, int64_t num_nodes,
                                  int64_t max_query_nodes) {
  uint64_t state = 0xADBA5EEDULL * static_cast<uint64_t>(pattern + 1);
  (void)SplitMix64(&state);
  const int64_t count =
      1 + static_cast<int64_t>(SplitMix64(&state) %
                               static_cast<uint64_t>(max_query_nodes));
  std::vector<int64_t> nodes;
  nodes.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    nodes.push_back(static_cast<int64_t>(
        SplitMix64(&state) % static_cast<uint64_t>(num_nodes)));
  }
  return nodes;
}

std::string FormatQuery(int64_t id, const std::vector<int64_t>& nodes) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"nodes\":[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(nodes[i]);
  }
  line += "]}\n";
  return line;
}

/// Blocking JSONL client with a receive timeout: a soak must never hang on
/// a connection the proxy wedged, so recv gives up after 5 s and the
/// worker abandons the connection.
class SoakClient {
 public:
  bool Connect(const std::string& host, uint16_t port) {
    Result<net::FdOwner> fd = net::ConnectTcp(host, port);
    if (!fd.ok()) return false;
    fd_ = std::move(*fd);
    timeval timeout{5, 0};
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    framer_ = std::make_unique<net::LineFramer>(
        net::LineFramer::kDefaultMaxLineBytes);
    return true;
  }

  bool connected() const { return fd_.valid(); }
  void Close() { fd_.Reset(); }

  bool Send(const std::string& line) {
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t wrote = ::send(fd_.get(), line.data() + sent,
                                   line.size() - sent, MSG_NOSIGNAL);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(wrote);
    }
    return true;
  }

  enum class Recv { kLine, kClosed, kTimeout };

  /// Blocks for the next complete reply line. kClosed covers EOF, RST and
  /// any other socket error; a trailing unterminated fragment at close is
  /// NOT a line (it was never a complete reply) and is discarded.
  Recv RecvLine(std::string* line) {
    char buffer[16384];
    while (true) {
      if (framer_->NextLine(line) == net::LineFramer::Next::kLine) {
        return Recv::kLine;
      }
      ssize_t got;
      do {
        got = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
      } while (got < 0 && errno == EINTR);
      if (got == 0) return Recv::kClosed;
      if (got < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK ? Recv::kTimeout
                                                       : Recv::kClosed;
      }
      framer_->Append(buffer, static_cast<size_t>(got));
    }
  }

 private:
  net::FdOwner fd_;
  std::unique_ptr<net::LineFramer> framer_;
};

/// Per-worker tallies, merged after join (no shared mutable state).
struct WorkerStats {
  uint64_t sent_queries = 0;
  uint64_t sent_reloads = 0;
  uint64_t ok_replies = 0;
  uint64_t error_replies = 0;
  uint64_t overloaded_replies = 0;
  uint64_t reload_acks = 0;
  uint64_t garbage_error_replies = 0;  ///< id -1 (injected garbage lines)
  uint64_t corrupted_requests = 0;     ///< request line eaten by garbage
  uint64_t dropped_connections = 0;
  uint64_t recv_timeouts = 0;
  uint64_t lost_replies = 0;  ///< outstanding when the connection died
  // Invariant violations — any non-zero value fails the soak.
  uint64_t parse_failures = 0;
  uint64_t order_violations = 0;
  uint64_t golden_mismatches = 0;
  uint64_t reply_shape_errors = 0;  ///< e.g. reload ack for a query

  bool Violated() const {
    return parse_failures != 0 || order_violations != 0 ||
           golden_mismatches != 0 || reply_shape_errors != 0;
  }
};

struct SoakConfig {
  std::string host;
  uint16_t port = 0;
  int64_t seconds = 5;
  uint64_t seed = 1;
  int64_t connections = 4;
  int64_t patterns = 32;
  int64_t num_nodes = 183;
  int64_t max_query_nodes = 8;
  std::string reload_path;
  int64_t reload_every = 64;
  const std::vector<std::string>* golden = nullptr;  // pattern -> classes CSV
};

struct Outstanding {
  int64_t id = 0;
  int64_t pattern = 0;
  bool is_reload = false;
};

void RunWorker(const SoakConfig& config, int64_t worker_index,
               WorkerStats* stats) {
  uint64_t state = config.seed ^ (0x517cc1b727220a95ULL *
                                  static_cast<uint64_t>(worker_index + 1));
  (void)SplitMix64(&state);
  const auto deadline = Clock::now() + std::chrono::seconds(config.seconds);
  // Worker-unique, strictly increasing ids: the per-connection order
  // invariant rides on these.
  int64_t next_id = (worker_index + 1) * 100'000'000;

  SoakClient client;
  std::vector<Outstanding> outstanding;  // FIFO of unanswered requests
  int64_t last_reply_id = -1;            // per connection

  const auto drop_connection = [&] {
    client.Close();
    stats->lost_replies += outstanding.size();
    outstanding.clear();
    last_reply_id = -1;
    ++stats->dropped_connections;
  };

  while (Clock::now() < deadline) {
    if (!client.connected()) {
      if (!client.Connect(config.host, config.port)) {
        // Proxy or server momentarily out of descriptors/backlog: retry.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      outstanding.clear();
      last_reply_id = -1;
    }

    // One burst: a few pipelined requests, occasionally a reload.
    const uint64_t burst = 1 + SplitMix64(&state) % 4;
    bool send_failed = false;
    for (uint64_t b = 0; b < burst && !send_failed; ++b) {
      const int64_t id = next_id++;
      Outstanding entry;
      entry.id = id;
      const bool reload =
          !config.reload_path.empty() &&
          SplitMix64(&state) % static_cast<uint64_t>(config.reload_every) ==
              0;
      std::string line;
      if (reload) {
        entry.is_reload = true;
        line = "{\"id\":" + std::to_string(id) + ",\"reload\":\"" +
               config.reload_path + "\"}\n";
        ++stats->sent_reloads;
      } else {
        entry.pattern = static_cast<int64_t>(
            SplitMix64(&state) % static_cast<uint64_t>(config.patterns));
        line = FormatQuery(
            id, PatternNodes(entry.pattern, config.num_nodes,
                             config.max_query_nodes));
        ++stats->sent_queries;
      }
      if (!client.Send(line)) {
        send_failed = true;
        break;
      }
      outstanding.push_back(entry);
    }
    if (send_failed) {
      drop_connection();
      continue;
    }

    // Collect replies until the burst is answered or the connection dies.
    while (!outstanding.empty()) {
      std::string line;
      const SoakClient::Recv got = client.RecvLine(&line);
      if (got == SoakClient::Recv::kClosed) {
        drop_connection();
        break;
      }
      if (got == SoakClient::Recv::kTimeout) {
        ++stats->recv_timeouts;
        drop_connection();
        break;
      }
      // Invariant 1: every complete line the server emits parses.
      const Result<serve::ServeReply> reply = serve::ParseReplyLine(line);
      if (!reply.ok()) {
        ++stats->parse_failures;
        std::fprintf(stderr, "soak: UNPARSEABLE reply %s: %s\n",
                     line.c_str(), reply.status().message().c_str());
        continue;
      }
      if (reply->id < 0) {
        // The server's answer to an injected garbage line; not ours.
        ++stats->garbage_error_replies;
        continue;
      }
      // Invariant 2: ids strictly increase per connection.
      if (reply->id <= last_reply_id) {
        ++stats->order_violations;
        std::fprintf(stderr, "soak: OUT-OF-ORDER reply id %lld after %lld\n",
                     static_cast<long long>(reply->id),
                     static_cast<long long>(last_reply_id));
        continue;
      }
      last_reply_id = reply->id;
      // A request whose line was corrupted by injected garbage gets an
      // id -1 error instead of its own reply: skip past such entries.
      while (!outstanding.empty() && outstanding.front().id < reply->id) {
        outstanding.erase(outstanding.begin());
        ++stats->corrupted_requests;
      }
      if (outstanding.empty() || outstanding.front().id != reply->id) {
        ++stats->order_violations;
        std::fprintf(stderr, "soak: UNEXPECTED reply id %lld\n",
                     static_cast<long long>(reply->id));
        continue;
      }
      const Outstanding entry = outstanding.front();
      outstanding.erase(outstanding.begin());
      switch (reply->kind) {
        case serve::ServeReply::Kind::kClasses: {
          if (entry.is_reload) {
            ++stats->reply_shape_errors;
            break;
          }
          // Invariant 3: bitwise-identical to the fault-free golden.
          const std::string& golden_csv =
              (*config.golden)[static_cast<size_t>(entry.pattern)];
          const std::string want = "{\"id\":" + std::to_string(reply->id) +
                                   ",\"classes\":[" + golden_csv + "]}";
          if (line != want) {
            ++stats->golden_mismatches;
            std::fprintf(stderr,
                         "soak: GOLDEN MISMATCH pattern %lld\n  got  %s\n"
                         "  want %s\n",
                         static_cast<long long>(entry.pattern), line.c_str(),
                         want.c_str());
          } else {
            ++stats->ok_replies;
          }
          break;
        }
        case serve::ServeReply::Kind::kError:
          // Structured degradation (an injected fault surfaced): fine.
          ++stats->error_replies;
          break;
        case serve::ServeReply::Kind::kOverloaded:
          ++stats->overloaded_replies;
          break;
        case serve::ServeReply::Kind::kReloaded:
          if (!entry.is_reload || reply->generation <= 0) {
            ++stats->reply_shape_errors;
          } else {
            ++stats->reload_acks;
          }
          break;
      }
    }
  }
}

int RecordGolden(const SoakConfig& config, const std::string& path) {
  SoakClient client;
  if (!client.Connect(config.host, config.port)) {
    std::fprintf(stderr, "soak: cannot connect to %s:%u\n",
                 config.host.c_str(), static_cast<unsigned>(config.port));
    return 1;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "soak: cannot write %s\n", path.c_str());
    return 1;
  }
  for (int64_t pattern = 0; pattern < config.patterns; ++pattern) {
    const std::string query = FormatQuery(
        pattern, PatternNodes(pattern, config.num_nodes,
                              config.max_query_nodes));
    if (!client.Send(query)) {
      std::fprintf(stderr, "soak: send failed while recording golden\n");
      return 1;
    }
    std::string line;
    if (client.RecvLine(&line) != SoakClient::Recv::kLine) {
      std::fprintf(stderr, "soak: no reply while recording golden\n");
      return 1;
    }
    const Result<serve::ServeReply> reply = serve::ParseReplyLine(line);
    if (!reply.ok() || reply->kind != serve::ServeReply::Kind::kClasses ||
        reply->id != pattern) {
      std::fprintf(stderr, "soak: bad golden reply for pattern %lld: %s\n",
                   static_cast<long long>(pattern), line.c_str());
      return 1;
    }
    std::string csv;
    for (size_t i = 0; i < reply->classes.size(); ++i) {
      if (i > 0) csv += ',';
      csv += std::to_string(reply->classes[i]);
    }
    out << pattern << '\t' << csv << '\n';
  }
  out.flush();
  std::fprintf(stderr, "soak: recorded %lld golden patterns to %s\n",
               static_cast<long long>(config.patterns), path.c_str());
  return out ? 0 : 1;
}

bool LoadGolden(const std::string& path, int64_t patterns,
                std::vector<std::string>* golden) {
  std::ifstream in(path);
  if (!in) return false;
  golden->assign(static_cast<size_t>(patterns), "");
  std::vector<bool> seen(static_cast<size_t>(patterns), false);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    int64_t pattern = -1;
    std::string csv;
    fields >> pattern;
    fields.ignore(1, '\t');
    std::getline(fields, csv);
    if (pattern < 0 || pattern >= patterns) return false;
    (*golden)[static_cast<size_t>(pattern)] = csv;
    seen[static_cast<size_t>(pattern)] = true;
  }
  for (const bool s : seen) {
    if (!s) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  // One thread per connection; the pattern pool and a query's node count
  // share ParseRequestLine's node cap.
  constexpr int64_t kMaxConnections = 256;
  constexpr int64_t kMaxNodes = int64_t{1} << 20;
  Flags flags;
  const bool parsed = flags.Parse(argc, argv);
  const std::string connect_address = flags.GetString("connect", "");
  const std::string golden_path = flags.GetString("golden", "");
  const std::optional<bool> record_golden = SwitchFlag(flags, "record_golden");
  const std::optional<int64_t> seconds =
      CountFlag(flags, "seconds", 5, 1, kMaxCount);
  const std::optional<int64_t> seed = CountFlag(flags, "seed", 1, 0, kMaxSeed);
  const std::optional<int64_t> connections =
      CountFlag(flags, "connections", 4, 1, kMaxConnections);
  const std::optional<int64_t> patterns =
      CountFlag(flags, "patterns", 32, 1, kMaxNodes);
  const std::optional<int64_t> num_nodes =
      CountFlag(flags, "num_nodes", 183, 1, kMaxCount);
  const std::optional<int64_t> max_query_nodes =
      CountFlag(flags, "max_query_nodes", 8, 1, kMaxNodes);
  const std::string reload_path = flags.GetString("reload_path", "");
  const std::optional<int64_t> reload_every =
      CountFlag(flags, "reload_every", 64, 1, kMaxCount);
  // At 0 a PASS would check nothing.
  const std::optional<int64_t> min_ok =
      CountFlag(flags, "min_ok", 1, 1, kMaxCount);
  if (!parsed || connect_address.empty() || golden_path.empty() ||
      !record_golden || !seconds || !seed || !connections || !patterns ||
      !num_nodes || !max_query_nodes || !reload_every || !min_ok ||
      !AllFlagsRead(flags)) {
    std::fprintf(
        stderr,
        "usage: soak_harness --connect=HOST:PORT --golden=FILE\n"
        "         [--record_golden] [--seconds=N] [--seed=N]\n"
        "         [--connections=K] [--patterns=P] [--num_nodes=N]\n"
        "         [--max_query_nodes=N] [--reload_path=F --reload_every=N]\n"
        "         [--min_ok=N]\n");
    return 2;
  }
  const Result<net::HostPort> connect = net::ParseHostPort(connect_address);
  if (!connect.ok()) {
    std::fprintf(stderr, "soak: %s\n", connect.status().message().c_str());
    return 2;
  }
  SoakConfig config{.host = connect->host, .port = connect->port,
                    .seconds = *seconds, .seed = static_cast<uint64_t>(*seed),
                    .connections = *connections, .patterns = *patterns,
                    .num_nodes = *num_nodes,
                    .max_query_nodes = *max_query_nodes,
                    .reload_path = reload_path, .reload_every = *reload_every};

  if (*record_golden) return RecordGolden(config, golden_path);

  std::vector<std::string> golden;
  if (!LoadGolden(golden_path, config.patterns, &golden)) {
    std::fprintf(stderr, "soak: cannot load golden %s (run --record_golden "
                 "against a fault-free server first)\n",
                 golden_path.c_str());
    return 1;
  }
  config.golden = &golden;

  std::vector<WorkerStats> stats(static_cast<size_t>(config.connections));
  std::vector<std::thread> workers;
  workers.reserve(stats.size());
  for (int64_t w = 0; w < config.connections; ++w) {
    workers.emplace_back(RunWorker, std::cref(config), w,
                         &stats[static_cast<size_t>(w)]);
  }
  for (std::thread& worker : workers) worker.join();

  WorkerStats total;
  for (const WorkerStats& s : stats) {
    total.sent_queries += s.sent_queries;
    total.sent_reloads += s.sent_reloads;
    total.ok_replies += s.ok_replies;
    total.error_replies += s.error_replies;
    total.overloaded_replies += s.overloaded_replies;
    total.reload_acks += s.reload_acks;
    total.garbage_error_replies += s.garbage_error_replies;
    total.corrupted_requests += s.corrupted_requests;
    total.dropped_connections += s.dropped_connections;
    total.recv_timeouts += s.recv_timeouts;
    total.lost_replies += s.lost_replies;
    total.parse_failures += s.parse_failures;
    total.order_violations += s.order_violations;
    total.golden_mismatches += s.golden_mismatches;
    total.reply_shape_errors += s.reply_shape_errors;
  }

  std::fprintf(
      stderr,
      "soak: sent %llu queries + %llu reloads; %llu ok (bitwise golden), "
      "%llu errors, %llu overloaded, %llu reload acks; %llu garbage "
      "replies, %llu corrupted requests, %llu dropped connections, %llu "
      "recv timeouts, %llu lost replies\n",
      static_cast<unsigned long long>(total.sent_queries),
      static_cast<unsigned long long>(total.sent_reloads),
      static_cast<unsigned long long>(total.ok_replies),
      static_cast<unsigned long long>(total.error_replies),
      static_cast<unsigned long long>(total.overloaded_replies),
      static_cast<unsigned long long>(total.reload_acks),
      static_cast<unsigned long long>(total.garbage_error_replies),
      static_cast<unsigned long long>(total.corrupted_requests),
      static_cast<unsigned long long>(total.dropped_connections),
      static_cast<unsigned long long>(total.recv_timeouts),
      static_cast<unsigned long long>(total.lost_replies));

  bool failed = false;
  if (total.Violated()) {
    std::fprintf(stderr,
                 "soak: FAIL — %llu parse failures, %llu order violations, "
                 "%llu golden mismatches, %llu reply shape errors\n",
                 static_cast<unsigned long long>(total.parse_failures),
                 static_cast<unsigned long long>(total.order_violations),
                 static_cast<unsigned long long>(total.golden_mismatches),
                 static_cast<unsigned long long>(total.reply_shape_errors));
    failed = true;
  }
  if (total.ok_replies < static_cast<uint64_t>(*min_ok)) {
    std::fprintf(stderr,
                 "soak: FAIL — only %llu ok replies (need >= %lld); the "
                 "harness made no meaningful progress\n",
                 static_cast<unsigned long long>(total.ok_replies),
                 static_cast<long long>(*min_ok));
    failed = true;
  }
  if (!failed) std::fprintf(stderr, "soak: PASS\n");
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) { return adpa::Main(argc, argv); }
