// Network serving subsystem tests: length-capped line framing must be a
// pure function of the byte stream (chunk boundaries never matter), the
// epoll server must answer JSONL requests in order per connection across
// pipelining, interleaved clients, EOF edge cases, and injected socket
// faults, over TCP and over stdin/stdout as pipes or regular files; and
// the hot checkpoint swap must be atomic — replies are bitwise identical
// to the old session right up to the swap and to the new session right
// after, with failed reloads leaving the live session serving.

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/failpoint.h"
#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/net/framing.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/serve/batcher.h"
#include "src/serve/engine.h"
#include "src/serve/hot_swap.h"
#include "src/serve/jsonl.h"
#include "src/serve/metrics.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

// ---------------------------------------------------------------------------
// Line framing

std::vector<std::string> DrainLines(net::LineFramer* framer) {
  std::vector<std::string> lines;
  std::string line;
  while (framer->NextLine(&line) == net::LineFramer::Next::kLine) {
    lines.push_back(line);
  }
  return lines;
}

TEST(LineFramerTest, SplitsLfAndCrlfLines) {
  net::LineFramer framer;
  const std::string input = "alpha\nbeta\r\ngamma\n";
  framer.Append(input.data(), input.size());
  EXPECT_EQ(DrainLines(&framer),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  std::string line;
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kNeedMore);
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(LineFramerTest, PartialLinesSpanAppends) {
  net::LineFramer framer;
  std::string line;
  framer.Append("hel", 3);
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kNeedMore);
  framer.Append("lo\nwo", 5);
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kLine);
  EXPECT_EQ(line, "hello");
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kNeedMore);
  framer.Append("rld\n", 4);
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kLine);
  EXPECT_EQ(line, "world");
}

TEST(LineFramerTest, ByteAtATimeMatchesWholeBuffer) {
  const std::string input =
      "first\nsecond line with spaces\r\n\n\r\nlast without newline";
  net::LineFramer whole;
  whole.Append(input.data(), input.size());
  std::vector<std::string> whole_lines = DrainLines(&whole);

  net::LineFramer bytewise;
  std::vector<std::string> byte_lines;
  std::string line;
  for (char c : input) {
    bytewise.Append(&c, 1);
    while (bytewise.NextLine(&line) == net::LineFramer::Next::kLine) {
      byte_lines.push_back(line);
    }
  }
  EXPECT_EQ(whole_lines, byte_lines);
  std::string rest_whole, rest_bytes;
  EXPECT_TRUE(whole.TakeRemainder(&rest_whole));
  EXPECT_TRUE(bytewise.TakeRemainder(&rest_bytes));
  EXPECT_EQ(rest_whole, rest_bytes);
  EXPECT_EQ(rest_whole, "last without newline");
}

TEST(LineFramerTest, OversizedLatchesPermanently) {
  net::LineFramer framer(/*max_line_bytes=*/8);
  const std::string input = "0123456789abcdef";  // no newline, over the cap
  framer.Append(input.data(), input.size());
  std::string line;
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kOversized);
  EXPECT_TRUE(framer.oversized());
  // A newline after the fact must NOT resynchronize: the stream is broken.
  framer.Append("\nok\n", 4);
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kOversized);
  EXPECT_FALSE(framer.TakeRemainder(&line));
}

TEST(LineFramerTest, CompleteLineAheadOfOversizedStillDelivered) {
  net::LineFramer framer(/*max_line_bytes=*/8);
  const std::string input = "short\n0123456789abcdef";
  framer.Append(input.data(), input.size());
  std::string line;
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kLine);
  EXPECT_EQ(line, "short");
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kOversized);
}

TEST(LineFramerTest, CapSizedCrlfLineIsNotOversizedAtAnyChunking) {
  // A line of exactly max_line_bytes terminated by "\r\n": the '\r' will be
  // stripped, so buffering it while the '\n' is still in flight must not
  // trip the oversized latch. Regression for a chunk-boundary divergence
  // found by fuzz_framing (whole-buffer delivery yielded the line, but
  // byte-at-a-time latched oversized on the cap+1st buffered byte '\r').
  const std::string payload(8, 'x');
  const std::string input = payload + "\r\n";
  for (size_t chunk = 1; chunk <= input.size(); ++chunk) {
    net::LineFramer framer(/*max_line_bytes=*/8);
    std::string line;
    std::vector<std::string> lines;
    for (size_t off = 0; off < input.size(); off += chunk) {
      framer.Append(input.data() + off, std::min(chunk, input.size() - off));
      while (framer.NextLine(&line) == net::LineFramer::Next::kLine) {
        lines.push_back(line);
      }
    }
    EXPECT_FALSE(framer.oversized()) << "chunk=" << chunk;
    EXPECT_EQ(lines, std::vector<std::string>{payload}) << "chunk=" << chunk;
  }
  // One byte past the cap still latches, with or without the CR excuse.
  net::LineFramer framer(/*max_line_bytes=*/8);
  const std::string over = payload + "y\r";
  framer.Append(over.data(), over.size());
  std::string line;
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kOversized);
}

TEST(LineFramerTest, TakeRemainderHandlesCrAndEmptiness) {
  net::LineFramer framer;
  std::string line;
  EXPECT_FALSE(framer.TakeRemainder(&line));  // nothing buffered
  framer.Append("done\ntail", 9);
  EXPECT_EQ(framer.NextLine(&line), net::LineFramer::Next::kLine);
  EXPECT_TRUE(framer.TakeRemainder(&line));
  EXPECT_EQ(line, "tail");
  EXPECT_FALSE(framer.TakeRemainder(&line));  // consumed
}

// ---------------------------------------------------------------------------
// host:port parsing

TEST(ParseHostPortTest, AcceptsHostColonPort) {
  Result<net::HostPort> spec = net::ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->host, "127.0.0.1");
  EXPECT_EQ(spec->port, 8080);

  spec = net::ParseHostPort(":0");  // empty host = INADDR_ANY, ephemeral
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->host, "");
  EXPECT_EQ(spec->port, 0);
}

TEST(ParseHostPortTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(net::ParseHostPort("nohost").ok());
  EXPECT_FALSE(net::ParseHostPort("host:").ok());
  EXPECT_FALSE(net::ParseHostPort("host:port").ok());
  EXPECT_FALSE(net::ParseHostPort("host:70000").ok());
  EXPECT_FALSE(net::ParseHostPort("host:-1").ok());
}

// ---------------------------------------------------------------------------
// Reload request grammar

TEST(JsonlReloadTest, ParsesAdminShape) {
  Result<serve::ServeRequest> request =
      serve::ParseRequestLine(R"({"id": 7, "reload": "/models/new.ckpt"})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_TRUE(request->is_reload);
  EXPECT_EQ(request->id, 7);
  EXPECT_EQ(request->reload_path, "/models/new.ckpt");

  request = serve::ParseRequestLine(R"({"reload": "m.ckpt"})");
  ASSERT_TRUE(request.ok());
  EXPECT_TRUE(request->is_reload);
  EXPECT_EQ(request->id, 0);  // id is optional for the admin shape
}

TEST(JsonlReloadTest, RejectsMixedAndHostileShapes) {
  EXPECT_FALSE(
      serve::ParseRequestLine(R"({"reload": "m", "nodes": [1]})").ok());
  EXPECT_FALSE(
      serve::ParseRequestLine(R"({"reload": "m", "deadline_ms": 5})").ok());
  EXPECT_FALSE(serve::ParseRequestLine(R"({"reload": ""})").ok());
  EXPECT_FALSE(serve::ParseRequestLine(R"({"reload": "a\\b"})").ok());
  EXPECT_FALSE(serve::ParseRequestLine("{\"reload\": \"a\tb\"}").ok());
  EXPECT_FALSE(serve::ParseRequestLine(R"({"reload": "unterminated)").ok());
  EXPECT_FALSE(
      serve::ParseRequestLine(R"({"reload": "a", "reload": "b"})").ok());
  // Overlong path: the 4096-byte cap fires before the string is built.
  const std::string long_path(5000, 'x');
  EXPECT_FALSE(
      serve::ParseRequestLine("{\"reload\": \"" + long_path + "\"}").ok());
}

TEST(JsonlReloadTest, FormatsReloadReply) {
  EXPECT_EQ(serve::FormatReloadReply(7, "/m.ckpt", 3),
            R"({"id":7,"reloaded":"/m.ckpt","generation":3})");
}

// ---------------------------------------------------------------------------
// Fixtures: a tiny dataset plus two checkpoints with different weights

Dataset Tiny(uint64_t seed = 5) {
  DsbmConfig config;
  config.num_nodes = 60;
  config.num_classes = 3;
  config.avg_out_degree = 4.0;
  config.class_transition = HomophilousTransition(3, 0.7);
  config.feature_dim = 6;
  config.seed = seed;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  Rng rng(seed);
  Split split =
      std::move(SplitFractions(ds.labels, 3, 0.5, 0.25, &rng)).value();
  ds.train_idx = split.train;
  ds.val_idx = split.val;
  ds.test_idx = split.test;
  return ds;
}

std::string UniquePath(const std::string& stem) {
  // ctest runs each test case as its own process in parallel; the pid keeps
  // concurrently running cases from clobbering each other's files.
  static std::atomic<int> counter{0};
  return testing::TempDir() + "/net_test_" + std::to_string(::getpid()) +
         "_" + stem + "_" + std::to_string(counter.fetch_add(1)) + ".ckpt";
}

ModelConfig SmallConfig() {
  ModelConfig config;
  config.hidden = 16;
  return config;
}

/// One dataset, two saved checkpoints whose (untrained, differently seeded)
/// weights classify differently — the raw material for swap tests.
struct SwapFixture {
  Dataset dataset = Tiny();
  ModelConfig config = SmallConfig();
  std::string path_a = UniquePath("a");
  std::string path_b = UniquePath("b");

  SwapFixture() {
    SaveModel(21, path_a);
    SaveModel(99, path_b);
  }

  void SaveModel(uint64_t seed, const std::string& path) {
    Rng rng(seed);
    ModelPtr model =
        std::move(CreateModel("ADPA", dataset, config, &rng)).value();
    const Checkpoint checkpoint =
        MakeCheckpoint(*model, "ADPA", dataset, config, TrainConfig());
    ASSERT_TRUE(SaveCheckpoint(checkpoint, path).ok());
  }

  /// The reply an in-process session over `checkpoint_path` would give —
  /// the bitwise reference for replies served over TCP.
  std::string ExpectedReply(const std::string& checkpoint_path, int64_t id,
                            const std::vector<int64_t>& nodes) {
    Checkpoint checkpoint =
        std::move(TryLoadCheckpoint(checkpoint_path)).value();
    serve::InferenceSession session = std::move(
        serve::InferenceSession::Create(checkpoint, dataset, {})).value();
    return serve::FormatClassesReply(id,
                                     std::move(session.Classify(nodes)).value());
  }
};

// ---------------------------------------------------------------------------
// SessionRegistry

TEST(SessionRegistryTest, EmptyUntilFirstLoadAndQueriesGetStructuredError) {
  SwapFixture fixture;
  serve::SessionRegistry registry(&fixture.dataset, serve::EngineOptions{});
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.generation(), 0);
  EXPECT_EQ(registry.current_path(), "");
  EXPECT_FALSE(registry.ReloadCurrent().ok());  // nothing to re-read yet

  // A flush against an empty registry's (null) session rejects, not
  // crashes.
  serve::MicroBatcher batcher(nullptr, {});
  serve::MicroBatcher::Slot reply;
  batcher.Submit({0, 1}, /*deadline_ms=*/0, &reply);
  batcher.Flush(registry.Current().get());
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionRegistryTest, ReloadSwapsSessionAndBumpsGeneration) {
  SwapFixture fixture;
  serve::SessionRegistry registry(&fixture.dataset, serve::EngineOptions{});

  Result<serve::SessionRegistry::ReloadInfo> info =
      registry.Reload(fixture.path_a);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->generation, 1);
  EXPECT_EQ(info->model_name, "ADPA");
  EXPECT_EQ(registry.current_path(), fixture.path_a);
  const std::shared_ptr<const serve::InferenceSession> first =
      registry.Current();
  ASSERT_NE(first, nullptr);

  info = registry.Reload(fixture.path_b);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->generation, 2);
  EXPECT_EQ(registry.current_path(), fixture.path_b);
  const std::shared_ptr<const serve::InferenceSession> second =
      registry.Current();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first.get(), second.get());

  // The pinned old session keeps answering even though the registry moved
  // on — this is what keeps in-flight batches safe across a swap.
  EXPECT_TRUE(first->Classify({0, 1, 2}).ok());
}

TEST(SessionRegistryTest, FailedReloadKeepsOldSessionServing) {
  SwapFixture fixture;
  serve::SessionRegistry registry(&fixture.dataset, serve::EngineOptions{});
  ASSERT_TRUE(registry.Reload(fixture.path_a).ok());
  const std::shared_ptr<const serve::InferenceSession> before =
      registry.Current();

  // Corrupt checkpoint: flip bytes in the middle of a copy of A.
  const std::string corrupt_path = UniquePath("corrupt");
  {
    std::ifstream in(fixture.path_a, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 128u);
    for (size_t i = bytes.size() / 2; i < bytes.size() / 2 + 16; ++i) {
      bytes[i] = static_cast<char>(~bytes[i]);
    }
    std::ofstream out(corrupt_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(registry.Reload(corrupt_path).ok());

  // Truncated checkpoint: same story.
  const std::string truncated_path = UniquePath("truncated");
  {
    std::ifstream in(fixture.path_a, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  EXPECT_FALSE(registry.Reload(truncated_path).ok());
  EXPECT_FALSE(registry.Reload(UniquePath("missing")).ok());

  // Through every failure the registry never flipped.
  EXPECT_EQ(registry.Current().get(), before.get());
  EXPECT_EQ(registry.generation(), 1);
  EXPECT_EQ(registry.current_path(), fixture.path_a);
  EXPECT_TRUE(registry.Current()->Classify({0}).ok());
}

// ---------------------------------------------------------------------------
// End-to-end server over loopback

/// Blocking line-oriented client over a real socket, with a receive
/// timeout so a server bug fails the test instead of hanging it.
class TestClient {
 public:
  explicit TestClient(uint16_t port)
      : fd_(std::move(net::ConnectTcp("127.0.0.1", port)).value()) {
    timeval timeout{};
    timeout.tv_sec = 10;
    setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
  }

  void Send(const std::string& text) {
    size_t offset = 0;
    while (offset < text.size()) {
      const ssize_t wrote = ::send(fd_.get(), text.data() + offset,
                                   text.size() - offset, MSG_NOSIGNAL);
      if (wrote <= 0) {
        ADD_FAILURE() << "send failed: " << std::strerror(errno);
        return;
      }
      offset += static_cast<size_t>(wrote);
    }
  }

  /// Next reply line without its terminator; "" on EOF/timeout.
  std::string RecvLine() {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (got <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(got));
    }
  }

  /// True once the server closed its end (reads EOF).
  bool AtEof() {
    char chunk[64];
    const ssize_t got = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (got > 0) buffer_.append(chunk, static_cast<size_t>(got));
    return got == 0;
  }

  /// True when the server terminated the connection — a clean EOF, or the
  /// RST the kernel sends when a socket is closed with unread data still
  /// queued (how a dropped-mid-request connection looks from outside).
  bool Dropped() {
    char chunk[64];
    const ssize_t got = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (got > 0) buffer_.append(chunk, static_cast<size_t>(got));
    return got == 0 || (got < 0 && errno == ECONNRESET);
  }

  void ShutdownWrite() { ::shutdown(fd_.get(), SHUT_WR); }

  /// Best-effort single-byte send for trickle tests: false once the server
  /// dropped us (EPIPE/ECONNRESET), never a test failure.
  bool TrySendByte(char byte) {
    return ::send(fd_.get(), &byte, 1, MSG_NOSIGNAL) == 1;
  }

 private:
  net::FdOwner fd_;
  std::string buffer_;
};

/// A live server on an ephemeral loopback port, its event loop on a test
/// thread (tests may use std::thread; src/ may not).
class ServerHarness {
 public:
  explicit ServerHarness(SwapFixture* fixture,
                         net::ServerOptions options = {},
                         bool load_initial = true)
      : fixture_(fixture),
        registry_(&fixture->dataset, serve::EngineOptions{}) {
    if (load_initial) {
      const Result<serve::SessionRegistry::ReloadInfo> initial =
          registry_.Reload(fixture->path_a);
      EXPECT_TRUE(initial.ok()) << initial.status().ToString();
    }
    options.host = "127.0.0.1";
    options.port = 0;
    server_ =
        std::move(net::Server::Create(options, &registry_, &metrics_))
            .value();
    loop_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  ~ServerHarness() { Stop(); }

  void Stop() {
    if (!loop_.joinable()) return;
    server_->RequestStop();
    loop_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  uint16_t port() const { return server_->port(); }
  net::Server& server() { return *server_; }
  serve::SessionRegistry& registry() { return registry_; }
  SwapFixture& fixture() { return *fixture_; }

 private:
  SwapFixture* fixture_;
  serve::SessionRegistry registry_;
  serve::ServeMetrics metrics_;
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
  Status serve_status_;
};

std::string Query(int64_t id, const std::string& nodes) {
  return "{\"id\": " + std::to_string(id) + ", \"nodes\": [" + nodes +
         "]}\n";
}

TEST(NetServerTest, AnswersPipelinedRequestsInOrder) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  TestClient client(harness.port());

  client.Send(Query(1, "0, 5, 9") + Query(2, "1") + Query(3, "2, 3"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 1,
                                                     {0, 5, 9}));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 2,
                                                     {1}));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 3,
                                                     {2, 3}));
}

TEST(NetServerTest, InterleavedConnectionsKeepTheirOwnOrder) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  TestClient first(harness.port());
  TestClient second(harness.port());

  first.Send(Query(10, "0"));
  second.Send(Query(20, "1"));
  first.Send(Query(11, "2"));
  second.Send(Query(21, "3"));

  EXPECT_EQ(first.RecvLine(), fixture.ExpectedReply(fixture.path_a, 10, {0}));
  EXPECT_EQ(first.RecvLine(), fixture.ExpectedReply(fixture.path_a, 11, {2}));
  EXPECT_EQ(second.RecvLine(),
            fixture.ExpectedReply(fixture.path_a, 20, {1}));
  EXPECT_EQ(second.RecvLine(),
            fixture.ExpectedReply(fixture.path_a, 21, {3}));
}

TEST(NetServerTest, ParseErrorsAndBlankLinesMatchStdinMode) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  TestClient client(harness.port());

  client.Send("not json\n\n\r\n" + Query(4, "0"));
  const std::string error = client.RecvLine();
  EXPECT_EQ(error.rfind("{\"id\":-1,\"error\":\"malformed request:", 0), 0u)
      << error;
  // Blank lines produce no replies at all.
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 4, {0}));
}

TEST(NetServerTest, FinalLineWithoutNewlineIsServedAtEof) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  TestClient client(harness.port());

  std::string query = Query(8, "7");
  query.pop_back();  // strip the newline
  client.Send(query);
  client.ShutdownWrite();
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 8, {7}));
  EXPECT_TRUE(client.AtEof());  // server closes once the reply is flushed
}

TEST(NetServerTest, OversizedLineGetsFramingErrorThenClose) {
  SwapFixture fixture;
  net::ServerOptions options;
  options.max_line_bytes = 64;
  ServerHarness harness(&fixture, options);
  TestClient client(harness.port());

  client.Send(std::string(256, 'x'));
  const std::string error = client.RecvLine();
  EXPECT_NE(error.find("exceeds 64 bytes"), std::string::npos) << error;
  EXPECT_TRUE(client.AtEof());
}

TEST(NetServerTest, QueueFullRejectsWithOverloadedShape) {
  SwapFixture fixture;
  net::ServerOptions options;
  options.batcher.max_queue_depth = 1;
  ServerHarness harness(&fixture, options);
  TestClient client(harness.port());

  // One pipelined burst lands in a single read: only the first Submit fits
  // the queue, the rest come back as the structured overloaded shape.
  client.Send(Query(1, "0") + Query(2, "1") + Query(3, "2"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 1, {0}));
  for (const int64_t id : {2, 3}) {
    const std::string reply = client.RecvLine();
    EXPECT_EQ(reply.rfind("{\"id\":" + std::to_string(id) +
                              ",\"error\":\"overloaded\"",
                          0),
              0u)
        << reply;
  }
}

TEST(NetServerTest, EmptyRegistryAnswersWithStructuredError) {
  SwapFixture fixture;
  ServerHarness harness(&fixture, {}, /*load_initial=*/false);
  TestClient client(harness.port());

  client.Send(Query(5, "0"));
  const std::string reply = client.RecvLine();
  EXPECT_NE(reply.find("no model is loaded yet"), std::string::npos)
      << reply;

  // A reload over the wire brings the server to life without a restart.
  client.Send("{\"id\": 6, \"reload\": \"" + fixture.path_a + "\"}\n");
  EXPECT_EQ(client.RecvLine(),
            serve::FormatReloadReply(6, fixture.path_a, 1));
  client.Send(Query(7, "0"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 7, {0}));
}

TEST(NetServerTest, ReloadCanBeDisabled) {
  SwapFixture fixture;
  net::ServerOptions options;
  options.allow_reload = false;
  ServerHarness harness(&fixture, options);
  TestClient client(harness.port());

  client.Send("{\"id\": 1, \"reload\": \"" + fixture.path_b + "\"}\n");
  const std::string reply = client.RecvLine();
  EXPECT_NE(reply.find("reload is disabled"), std::string::npos) << reply;
  EXPECT_EQ(harness.registry().generation(), 1);  // nothing swapped
}

TEST(NetServerTest, HotSwapIsBitwiseExactOnBothSides) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  const std::vector<int64_t> nodes{0, 3, 7, 11, 19, 23, 31, 42, 55, 59};
  const std::string expected_a =
      fixture.ExpectedReply(fixture.path_a, 1, nodes);
  const std::string expected_b =
      fixture.ExpectedReply(fixture.path_b, 1, nodes);
  ASSERT_NE(expected_a, expected_b)
      << "fixture checkpoints must classify differently";
  const std::string query = Query(1, "0, 3, 7, 11, 19, 23, 31, 42, 55, 59");

  TestClient hammer(harness.port());
  TestClient admin(harness.port());

  // Every reply before the swap is bitwise the old session's.
  for (int i = 0; i < 5; ++i) {
    hammer.Send(query);
    EXPECT_EQ(hammer.RecvLine(), expected_a);
  }
  admin.Send("{\"id\": 99, \"reload\": \"" + fixture.path_b + "\"}\n");
  EXPECT_EQ(admin.RecvLine(),
            serve::FormatReloadReply(99, fixture.path_b, 2));
  // Every reply after the acked swap is bitwise the new session's.
  for (int i = 0; i < 5; ++i) {
    hammer.Send(query);
    EXPECT_EQ(hammer.RecvLine(), expected_b);
  }
}

TEST(NetServerTest, SwapUnderConcurrentLoadNeverTearsAReply) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  const std::vector<int64_t> nodes{0, 3, 7, 11, 19, 23, 31, 42, 55, 59};
  const std::string expected_a =
      fixture.ExpectedReply(fixture.path_a, 1, nodes);
  const std::string expected_b =
      fixture.ExpectedReply(fixture.path_b, 1, nodes);
  ASSERT_NE(expected_a, expected_b);
  const std::string query = Query(1, "0, 3, 7, 11, 19, 23, 31, 42, 55, 59");

  std::vector<std::string> replies;
  std::thread hammer([&] {
    TestClient client(harness.port());
    for (int i = 0; i < 200; ++i) {
      client.Send(query);
      replies.push_back(client.RecvLine());
    }
  });

  TestClient admin(harness.port());
  admin.Send("{\"id\": 99, \"reload\": \"" + fixture.path_b + "\"}\n");
  EXPECT_EQ(admin.RecvLine(),
            serve::FormatReloadReply(99, fixture.path_b, 2));
  hammer.join();

  // Every reply is bitwise one of the two sessions — never torn, never an
  // error — and the sequence switches from A to B exactly once.
  bool swapped = false;
  for (const std::string& reply : replies) {
    if (reply == expected_b) {
      swapped = true;
    } else {
      EXPECT_EQ(reply, expected_a);
      EXPECT_FALSE(swapped) << "old-session reply after a new-session one";
    }
  }
}

TEST(NetServerTest, CorruptReloadKeepsLiveSessionAnswering) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  const std::string truncated_path = UniquePath("net_truncated");
  {
    std::ifstream in(fixture.path_a, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  TestClient client(harness.port());
  client.Send("{\"id\": 1, \"reload\": \"" + truncated_path + "\"}\n");
  const std::string reply = client.RecvLine();
  EXPECT_EQ(reply.rfind("{\"id\":1,\"error\":\"", 0), 0u) << reply;

  // The live session never stopped answering, and the registry held.
  client.Send(Query(2, "0, 1"));
  EXPECT_EQ(client.RecvLine(),
            fixture.ExpectedReply(fixture.path_a, 2, {0, 1}));
  EXPECT_EQ(harness.registry().generation(), 1);
  EXPECT_EQ(harness.registry().current_path(), fixture.path_a);
}

TEST(NetServerTest, ConcurrentAdminReloadsSerialize) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  constexpr int kReloadsPerClient = 8;

  auto reload_loop = [&](const std::string& path) {
    TestClient client(harness.port());
    for (int i = 0; i < kReloadsPerClient; ++i) {
      client.Send("{\"id\": 1, \"reload\": \"" + path + "\"}\n");
      const std::string reply = client.RecvLine();
      EXPECT_EQ(reply.rfind("{\"id\":1,\"reloaded\":", 0), 0u) << reply;
    }
  };
  std::thread first(reload_loop, fixture.path_a);
  std::thread second(reload_loop, fixture.path_b);
  first.join();
  second.join();

  // Single-threaded event loop: every reload ran to completion in arrival
  // order, so the generation counter accounts for each one exactly once.
  EXPECT_EQ(harness.registry().generation(), 1 + 2 * kReloadsPerClient);
  ASSERT_NE(harness.registry().Current(), nullptr);
  EXPECT_TRUE(harness.registry().Current()->Classify({0}).ok());
}

TEST(NetServerTest, StopDrainsOutstandingRepliesAndCloses) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  TestClient client(harness.port());

  client.Send(Query(1, "0") + Query(2, "1") + Query(3, "2"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 1, {0}));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 2, {1}));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 3, {2}));

  harness.Stop();  // asserts Serve() returned OK
  EXPECT_TRUE(client.AtEof());
  EXPECT_GE(harness.server().stats().accepted, 1u);
}

TEST(NetServerTest, RequestReloadReReadsCurrentPath) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  const std::vector<int64_t> nodes{0, 3, 7, 11, 19, 23, 31, 42, 55, 59};
  const std::string expected_b =
      fixture.ExpectedReply(fixture.path_b, 1, nodes);

  // Replace the file behind the current path — the SIGHUP scenario ("the
  // checkpoint was rewritten on disk; pick it up").
  {
    std::ifstream in(fixture.path_b, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(fixture.path_a, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  harness.server().RequestReload();
  // The wake is asynchronous; the generation bump marks completion.
  for (int i = 0; i < 500 && harness.registry().generation() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(harness.registry().generation(), 2);

  TestClient client(harness.port());
  client.Send(Query(1, "0, 3, 7, 11, 19, 23, 31, 42, 55, 59"));
  EXPECT_EQ(client.RecvLine(), expected_b);
}

// ---------------------------------------------------------------------------
// stdin/stdout as one more connection (Server::CreateStdio)

/// How the stdio tests feed the server: a pipe pair, or regular temp files,
/// which epoll refuses with EPERM, so the loop reads them without sleeping.
enum class StdioKind { kPipe, kFile };

struct StdioRun {
  std::string output;      ///< everything the server wrote
  size_t input_left = 0;   ///< input bytes the server never read
  net::ServerStats stats;
};

void WriteAll(int fd, const std::string& bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t wrote =
        ::write(fd, bytes.data() + offset, bytes.size() - offset);
    ASSERT_GT(wrote, 0) << std::strerror(errno);
    offset += static_cast<size_t>(wrote);
  }
}

std::string ReadToEof(int fd) {
  std::string bytes;
  char chunk[4096];
  ssize_t got;
  while ((got = ::read(fd, chunk, sizeof(chunk))) > 0) {
    bytes.append(chunk, static_cast<size_t>(got));
  }
  return bytes;
}

/// Serves `input` through a stdio server on the calling thread until
/// Serve() returns. Pipe inputs and outputs must fit the 64 KiB pipe
/// buffer, since nothing drains them while the server runs.
StdioRun ServeStdio(StdioKind kind, serve::SessionRegistry* registry,
                    const std::string& input,
                    net::ServerOptions options = {}) {
  int in_fd = -1, out_fd = -1, out_reader = -1;
  if (kind == StdioKind::kPipe) {
    int in[2], out[2];
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    WriteAll(in[1], input);
    ::close(in[1]);
    in_fd = in[0];
    out_fd = out[1];
    out_reader = out[0];
  } else {
    const std::string in_path = UniquePath("stdin");
    const std::string out_path = UniquePath("stdout");
    std::ofstream(in_path, std::ios::binary) << input;
    in_fd = ::open(in_path.c_str(), O_RDONLY | O_CLOEXEC);
    out_fd = ::open(out_path.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
    out_reader = ::open(out_path.c_str(), O_RDONLY | O_CLOEXEC);
  }
  StdioRun run;
  {
    std::unique_ptr<net::Server> server =
        std::move(net::Server::CreateStdio(options, registry, nullptr, in_fd,
                                           out_fd))
            .value();
    const Status status = server->Serve();
    EXPECT_TRUE(status.ok()) << status.ToString();
    run.stats = server->stats();
  }
  EXPECT_GE(::fcntl(in_fd, F_GETFD), 0) << "stdio descriptors stay open";
  EXPECT_GE(::fcntl(out_fd, F_GETFD), 0) << "stdio descriptors stay open";
  ::close(out_fd);
  run.output = ReadToEof(out_reader);
  run.input_left = ReadToEof(in_fd).size();
  ::close(in_fd);
  ::close(out_reader);
  return run;
}

class StdioServerTest : public testing::TestWithParam<StdioKind> {
 protected:
  StdioServerTest() { EXPECT_TRUE(registry_.Reload(fixture_.path_a).ok()); }

  SwapFixture fixture_;
  serve::SessionRegistry registry_{&fixture_.dataset, serve::EngineOptions{}};
};

TEST_P(StdioServerTest, AnswersInOrderAndReturnsAtEof) {
  const StdioRun run = ServeStdio(
      GetParam(), &registry_,
      Query(1, "0, 5, 9") + "not json\n\n" + Query(2, "1") + Query(3, "2, 3"));
  const std::string parse_error = serve::FormatErrorReply(
      -1, serve::ParseRequestLine("not json").status().message());
  EXPECT_EQ(run.output,
            fixture_.ExpectedReply(fixture_.path_a, 1, {0, 5, 9}) + "\n" +
                parse_error + "\n" +
                fixture_.ExpectedReply(fixture_.path_a, 2, {1}) + "\n" +
                fixture_.ExpectedReply(fixture_.path_a, 3, {2, 3}) + "\n");
  EXPECT_EQ(run.input_left, 0u);
  EXPECT_EQ(run.stats.closed_by_peer, 1u);
  EXPECT_EQ(run.stats.accepted, 0u);
}

TEST_P(StdioServerTest, FinalLineWithoutNewlineIsServed) {
  std::string query = Query(8, "7");
  query.pop_back();  // strip the newline
  const StdioRun run = ServeStdio(GetParam(), &registry_, query);
  EXPECT_EQ(run.output,
            fixture_.ExpectedReply(fixture_.path_a, 8, {7}) + "\n");
}

TEST_P(StdioServerTest, OversizedLineGetsFramingErrorAndEndsTheSession) {
  net::ServerOptions options;
  options.max_line_bytes = 64;
  // Far more than one read chunk: the server must stop reading at the
  // first oversized chunk instead of buffering the stream.
  const std::string input =
      Query(1, "0") + std::string(40000, 'x') + "\n" + Query(2, "1");
  const StdioRun run = ServeStdio(GetParam(), &registry_, input, options);
  EXPECT_EQ(run.output,
            fixture_.ExpectedReply(fixture_.path_a, 1, {0}) + "\n" +
                serve::FormatErrorReply(
                    -1, "request line exceeds 64 bytes; closing connection") +
                "\n");
  EXPECT_GT(run.input_left, 0u) << "the rest of the stream must stay unread";
  EXPECT_EQ(run.stats.dropped, 1u);
}

TEST_P(StdioServerTest, ReloadIsAcknowledgedBetweenQueries) {
  const std::vector<int64_t> nodes{0, 3, 7, 11, 19, 23, 31, 42, 55, 59};
  const std::string list = "0, 3, 7, 11, 19, 23, 31, 42, 55, 59";
  const StdioRun run = ServeStdio(
      GetParam(), &registry_,
      Query(1, list) + "{\"id\": 9, \"reload\": \"" + fixture_.path_b +
          "\"}\n" + Query(2, list));
  EXPECT_EQ(run.output,
            fixture_.ExpectedReply(fixture_.path_a, 1, nodes) + "\n" +
                serve::FormatReloadReply(9, fixture_.path_b, 2) + "\n" +
                fixture_.ExpectedReply(fixture_.path_b, 2, nodes) + "\n");
  EXPECT_EQ(registry_.generation(), 2);
  EXPECT_EQ(run.stats.reloads, 1u);
}

TEST_P(StdioServerTest, ReloadCanBeDisabled) {
  net::ServerOptions options;
  options.allow_reload = false;
  const StdioRun run = ServeStdio(
      GetParam(), &registry_,
      "{\"id\": 9, \"reload\": \"" + fixture_.path_b + "\"}\n", options);
  EXPECT_EQ(run.output,
            serve::FormatErrorReply(9, "reload is disabled on this server") +
                "\n");
  EXPECT_EQ(registry_.generation(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, StdioServerTest,
    testing::Values(StdioKind::kPipe, StdioKind::kFile),
    [](const testing::TestParamInfo<StdioKind>& info) {
      return info.param == StdioKind::kPipe ? "Pipe" : "File";
    });

/// Next '\n'-terminated line from a blocking pipe, or "" after 10 s.
std::string ReadLineFromPipe(int fd) {
  std::string line;
  char c;
  while (true) {
    pollfd ready{fd, POLLIN, 0};
    if (::poll(&ready, 1, 10000) != 1 || ::read(fd, &c, 1) != 1) return "";
    if (c == '\n') return line;
    line.push_back(c);
  }
}

TEST(StdioServerSignalTest, ReloadAndStopWakeTheLoopWhileStdinStaysOpen) {
  // The SIGHUP and SIGTERM paths over stdin: the input pipe never reaches
  // EOF, so only the wake pipe can end Serve().
  SwapFixture fixture;
  serve::SessionRegistry registry(&fixture.dataset, serve::EngineOptions{});
  ASSERT_TRUE(registry.Reload(fixture.path_a).ok());
  int in[2], out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  std::unique_ptr<net::Server> server =
      std::move(net::Server::CreateStdio({}, &registry, nullptr, in[0],
                                         out[1]))
          .value();
  Status serve_status;
  std::thread loop([&] { serve_status = server->Serve(); });

  // Replace the file behind the current path, then "SIGHUP".
  {
    std::ifstream from(fixture.path_b, std::ios::binary);
    std::ofstream to(fixture.path_a, std::ios::binary | std::ios::trunc);
    to << from.rdbuf();
  }
  server->RequestReload();
  for (int i = 0; i < 500 && registry.generation() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(registry.generation(), 2);
  WriteAll(in[1], Query(1, "0, 3, 7"));
  EXPECT_EQ(ReadLineFromPipe(out[0]),
            fixture.ExpectedReply(fixture.path_b, 1, {0, 3, 7}));

  server->RequestStop();  // "SIGTERM"
  loop.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  EXPECT_EQ(server->stats().reloads, 1u);
  for (const int fd : {in[0], in[1], out[0], out[1]}) ::close(fd);
}

// ---------------------------------------------------------------------------
// Reply-line grammar (the soak harness's parse invariant)

TEST(ParseReplyLineTest, RoundTripsEveryFormatterShape) {
  Result<serve::ServeReply> reply =
      serve::ParseReplyLine(serve::FormatClassesReply(7, {0, 2, 1}));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->kind, serve::ServeReply::Kind::kClasses);
  EXPECT_EQ(reply->id, 7);
  EXPECT_EQ(reply->classes, (std::vector<int64_t>{0, 2, 1}));

  reply = serve::ParseReplyLine(serve::FormatClassesReply(1, {}));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->classes.empty());

  reply = serve::ParseReplyLine(
      serve::FormatErrorReply(-1, "malformed request: \"x\"\ttab"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->kind, serve::ServeReply::Kind::kError);
  EXPECT_EQ(reply->id, -1);
  EXPECT_EQ(reply->message, "malformed request: \"x\"\ttab");

  reply = serve::ParseReplyLine(
      serve::FormatOverloadedReply(9, "queue depth 128 exceeded"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->kind, serve::ServeReply::Kind::kOverloaded);
  EXPECT_EQ(reply->message, "queue depth 128 exceeded");

  reply = serve::ParseReplyLine(serve::FormatReloadReply(3, "/m.ckpt", 12));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->kind, serve::ServeReply::Kind::kReloaded);
  EXPECT_EQ(reply->reloaded_path, "/m.ckpt");
  EXPECT_EQ(reply->generation, 12);
}

TEST(ParseReplyLineTest, RejectsEverythingTheFormattersNeverEmit) {
  // The grammar accepts exactly the formatter output: any whitespace,
  // reordered key, or foreign escape means the reply stream is corrupt.
  const char* bad[] = {
      "",
      "{}",
      "{\"id\": 7,\"classes\":[1]}",      // space after the colon
      "{\"id\":7,\"classes\":[1] }",      // trailing space
      "{\"id\":7,\"classes\":[1]}x",      // trailing garbage
      "{\"id\":7,\"classes\":[1,]}",      // dangling comma
      "{\"id\":7,\"classes\":[01]}",      // leading zero
      "{\"classes\":[1],\"id\":7}",       // reordered keys
      "{\"id\":7}",                       // no payload key
      "{\"id\":99999999999999999999,\"classes\":[1]}",  // id overflow
      "{\"id\":7,\"error\":\"\\x41\"}",   // escape the formatter never emits
      "{\"id\":7,\"error\":\"\\u0041\"}", // \u is reserved for controls
      "{\"id\":7,\"error\":\"raw\tcontrol\"}",
      "{\"id\":7,\"error\":\"unterminated}",
      "{\"id\":7,\"reloaded\":\"m\"}",    // reloaded without generation
      "{\"id\":7,\"reloaded\":\"m\",\"generation\":-1}",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(serve::ParseReplyLine(line).ok())
        << "accepted corrupt reply: " << line;
  }
  // The class-count cap guards against allocation bombs.
  EXPECT_FALSE(
      serve::ParseReplyLine("{\"id\":1,\"classes\":[1,2,3]}", 2).ok());
}

TEST(ParseReplyLineTest, ControlEscapesRoundTrip) {
  const std::string message = std::string("nul\x01 up\x1f down") + "\r\n";
  Result<serve::ServeReply> reply =
      serve::ParseReplyLine(serve::FormatErrorReply(5, message));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->message, message);
}

// ---------------------------------------------------------------------------
// Connection hygiene: idle timeouts, slow-loris stalls, fd exhaustion

TEST(ConnectionHygieneTest, IdleConnectionIsClosedCleanly) {
  SwapFixture fixture;
  net::ServerOptions options;
  options.idle_timeout_ms = 150;
  ServerHarness harness(&fixture, options);
  TestClient client(harness.port());

  // A live request-reply exchange works normally first: idle means "no
  // bytes and nothing owed", not "slow".
  client.Send(Query(1, "0"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 1, {0}));

  // Then the client goes quiet and the server reclaims the slot with a
  // clean FIN (EOF from the client's side, not a reset).
  EXPECT_TRUE(client.AtEof());
  harness.Stop();  // stats are the loop thread's until Serve() returns
  EXPECT_GE(harness.server().stats().idle_closed, 1u);
}

TEST(ConnectionHygieneTest, StallTimeoutDropsAnUnfinishedLine) {
  SwapFixture fixture;
  net::ServerOptions options;
  options.stall_timeout_ms = 150;
  ServerHarness harness(&fixture, options);
  TestClient client(harness.port());

  client.Send("{\"id\": 1, \"nodes\": [0");  // never finishes the line
  EXPECT_TRUE(client.Dropped());
  harness.Stop();
  EXPECT_GE(harness.server().stats().stall_dropped, 1u);
}

TEST(ConnectionHygieneTest, TricklingBytesDoesNotResetTheStallClock) {
  SwapFixture fixture;
  net::ServerOptions options;
  options.stall_timeout_ms = 250;
  ServerHarness harness(&fixture, options);
  TestClient client(harness.port());

  // Completed lines keep the connection healthy.
  client.Send(Query(1, "0"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 1, {0}));

  // The classic slow-loris: one byte of an unfinished line every 50 ms —
  // steady traffic, never a complete request. The stall clock runs from
  // the oldest unconsumed byte, so growth must not keep the slot alive.
  bool dropped = false;
  for (int i = 0; i < 40 && !dropped; ++i) {
    if (!client.TrySendByte('{')) dropped = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(dropped || client.Dropped());
  harness.Stop();
  EXPECT_GE(harness.server().stats().stall_dropped, 1u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ADPA_NET_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ADPA_NET_TEST_SANITIZED 1
#endif
#endif

TEST(ConnectionHygieneTest, RealFdExhaustionShedsAndRecovers) {
#ifdef ADPA_NET_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes need spare fds of their own";
#endif
  // Genuine EMFILE from the kernel, not a failpoint: lower RLIMIT_NOFILE
  // (this test is its own process under ctest, so the change is private),
  // hoard every remaining descriptor, and watch the reserve-fd drain shed
  // the connection instead of busy-looping on a hot listener.
  SwapFixture fixture;
  ServerHarness harness(&fixture);

  rlimit original{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit lowered = original;
  lowered.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);

  std::vector<int> hoard;
  for (int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) {
    hoard.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE);
  ASSERT_FALSE(hoard.empty());

  // Free exactly one slot for the client's own socket: the connect lands
  // in the backlog, and the server's accept is what hits EMFILE.
  ::close(hoard.back());
  hoard.pop_back();
  TestClient starved(harness.port());
  EXPECT_TRUE(starved.Dropped());

  // Release the pressure: the very next connection is served normally —
  // the listener, epoll set, and reserve descriptor all survived.
  for (const int fd : hoard) ::close(fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &original), 0);
  TestClient recovered(harness.port());
  recovered.Send(Query(2, "1"));
  EXPECT_EQ(recovered.RecvLine(),
            fixture.ExpectedReply(fixture.path_a, 2, {1}));
  harness.Stop();
  EXPECT_GE(harness.server().stats().fd_exhausted, 1u);
  EXPECT_GE(harness.server().stats().over_capacity, 1u);
}

// ---------------------------------------------------------------------------
// Signal races: SIGHUP and SIGTERM arrive via the same self-pipe the soak
// harness exercises; these pin the orderings chaos runs keep hitting.

TEST(NetServerTest, ReloadSignalDuringStopDrainStaysClean) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  TestClient client(harness.port());

  client.Send(Query(1, "0") + Query(2, "1"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 1, {0}));

  // SIGTERM starts the drain; a SIGHUP lands in the middle of it. The
  // reload must neither wedge the drain nor tear the in-flight reply.
  harness.server().RequestStop();
  harness.server().RequestReload();
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 2, {1}));
  EXPECT_TRUE(client.AtEof());
  harness.Stop();  // asserts Serve() returned OK
  ASSERT_NE(harness.registry().Current(), nullptr);
  EXPECT_TRUE(harness.registry().Current()->Classify({0}).ok());
}

TEST(NetServerTest, BackToBackReloadSignalsWithQueriesInFlight) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  const std::vector<int64_t> nodes{0, 3, 7, 11, 19, 23, 31, 42, 55, 59};
  const std::string expected =
      fixture.ExpectedReply(fixture.path_a, 1, nodes);
  const std::string query = Query(1, "0, 3, 7, 11, 19, 23, 31, 42, 55, 59");

  TestClient client(harness.port());
  std::thread hammer([&] {
    for (int i = 0; i < 50; ++i) {
      client.Send(query);
      EXPECT_EQ(client.RecvLine(), expected);
    }
  });
  // Two SIGHUPs back to back while the hammer keeps a batch in flight.
  // ReloadCurrent re-reads the same path, so every reply stays bitwise
  // identical through both swaps.
  harness.server().RequestReload();
  harness.server().RequestReload();
  hammer.join();

  // Each wake byte ran exactly one reload to completion.
  for (int i = 0; i < 500 && harness.registry().generation() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(harness.registry().generation(), 3);
  harness.Stop();
  EXPECT_EQ(harness.server().stats().reloads, 2u);
}

// ---------------------------------------------------------------------------
// Failpoint recovery (compiled in under the `recovery` preset)

class NetFailpointTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::CompiledIn()) {
      GTEST_SKIP() << "failpoints compiled out; build with "
                      "-DADPA_FAILPOINTS=ON";
    }
    failpoint::ClearAll();
  }
  void TearDown() override {
    if (failpoint::CompiledIn()) failpoint::ClearAll();
  }
};

TEST_F(NetFailpointTest, AcceptErrorIsCountedAndSurvived) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  ASSERT_TRUE(failpoint::Configure("net.accept", "error@1").ok());

  // The first accept attempt fails; level-triggered epoll retries and the
  // connection still lands. The server never goes down.
  TestClient client(harness.port());
  client.Send(Query(1, "0"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 1, {0}));
  harness.Stop();
  EXPECT_GE(harness.server().stats().io_errors, 1u);
}

TEST_F(NetFailpointTest, ReadErrorDropsOnlyThatConnection) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  ASSERT_TRUE(failpoint::Configure("net.read", "error@1").ok());

  TestClient victim(harness.port());
  victim.Send(Query(1, "0"));
  EXPECT_TRUE(victim.Dropped());  // injected read failure drops the victim

  failpoint::ClearAll();
  TestClient survivor(harness.port());  // the server itself kept serving
  survivor.Send(Query(2, "1"));
  EXPECT_EQ(survivor.RecvLine(),
            fixture.ExpectedReply(fixture.path_a, 2, {1}));
}

TEST_F(NetFailpointTest, ByteAtATimeIoStaysByteCorrect) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  // Every read and write transfers one byte: the framing and flush paths
  // run at maximum fragmentation and the replies must not change.
  ASSERT_TRUE(failpoint::Configure("net.read.short", "error").ok());
  ASSERT_TRUE(failpoint::Configure("net.write.short", "error").ok());

  TestClient client(harness.port());
  client.Send(Query(1, "0, 5, 9") + Query(2, "1"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 1,
                                                     {0, 5, 9}));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 2,
                                                     {1}));
}

TEST_F(NetFailpointTest, WriteErrorDropsOnlyThatConnection) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  ASSERT_TRUE(failpoint::Configure("net.write", "error@1").ok());

  // The injected send failure lands while flushing the victim's reply;
  // only that connection is torn down.
  TestClient victim(harness.port());
  victim.Send(Query(1, "0"));
  EXPECT_TRUE(victim.Dropped());

  failpoint::ClearAll();
  TestClient survivor(harness.port());
  survivor.Send(Query(2, "1"));
  EXPECT_EQ(survivor.RecvLine(),
            fixture.ExpectedReply(fixture.path_a, 2, {1}));
}

TEST_F(NetFailpointTest, EmfileOnAcceptShedsViaReserveFdAndRecovers) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  // Simulated fd exhaustion: the first accept reports EMFILE, so the
  // server must burn its reserve descriptor to pull one connection off
  // the backlog and shed it — never busy-loop on a hot listener.
  ASSERT_TRUE(failpoint::Configure("net.accept.emfile", "error@1").ok());

  TestClient shed(harness.port());
  EXPECT_TRUE(shed.Dropped());

  // The reserve was reopened, so normal service resumes immediately.
  failpoint::ClearAll();
  TestClient survivor(harness.port());
  survivor.Send(Query(2, "1"));
  EXPECT_EQ(survivor.RecvLine(),
            fixture.ExpectedReply(fixture.path_a, 2, {1}));
  harness.Stop();
  EXPECT_GE(harness.server().stats().fd_exhausted, 1u);
  EXPECT_GE(harness.server().stats().over_capacity, 1u);
}

TEST_F(NetFailpointTest, ReloadLoadFailureKeepsOldSessionServing) {
  SwapFixture fixture;
  ServerHarness harness(&fixture);
  ASSERT_TRUE(failpoint::Configure("net.reload.load", "error").ok());

  TestClient client(harness.port());
  client.Send("{\"id\": 1, \"reload\": \"" + fixture.path_b + "\"}\n");
  const std::string reply = client.RecvLine();
  EXPECT_NE(reply.find("injected failure"), std::string::npos) << reply;

  failpoint::ClearAll();
  client.Send(Query(2, "0"));
  EXPECT_EQ(client.RecvLine(), fixture.ExpectedReply(fixture.path_a, 2, {0}));
  EXPECT_EQ(harness.registry().generation(), 1);
  EXPECT_EQ(harness.registry().current_path(), fixture.path_a);
}

}  // namespace
}  // namespace adpa
