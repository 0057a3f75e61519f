// Serving subsystem tests: the no-tape InferenceSession must be bitwise
// identical to the training model's eval forward across the ModelConfig
// space; batched/subset queries must match full forwards;
// the micro-batcher must answer coalesced requests correctly; the JSON
// lines codec must accept exactly the request schema.

#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/io/checkpoint.h"
#include "src/models/adpa.h"
#include "src/models/factory.h"
#include "src/serve/batcher.h"
#include "src/serve/engine.h"
#include "src/serve/jsonl.h"
#include "src/serve/metrics.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

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

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

struct SessionFixture {
  Dataset dataset;
  ModelPtr model;
  Checkpoint checkpoint;
  Matrix eval_logits;

  SessionFixture(ModelConfig config, uint64_t seed = 21)
      : dataset(Tiny(seed)) {
    Rng rng(seed);
    model = std::move(CreateModel("ADPA", dataset, config, &rng)).value();
    eval_logits = model->Forward(/*training=*/false, &rng).value();
    checkpoint =
        MakeCheckpoint(*model, "ADPA", dataset, config, TrainConfig());
  }

  serve::InferenceSession Session() const {
    Result<serve::InferenceSession> session =
        serve::InferenceSession::Create(checkpoint, dataset);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    return std::move(*session);
  }
};

ModelConfig SmallConfig() {
  ModelConfig config;
  config.hidden = 16;
  config.dropout = 0.4f;  // must be elided in eval — the parity proves it
  return config;
}

TEST(InferenceSessionTest, MatchesEvalForwardBitwiseForEveryVariant) {
  for (DpAttention variant :
       {DpAttention::kOriginal, DpAttention::kGate, DpAttention::kRecursive,
        DpAttention::kJk}) {
    ModelConfig config = SmallConfig();
    config.dp_attention = variant;
    SessionFixture fixture(config);
    serve::InferenceSession session = fixture.Session();
    EXPECT_TRUE(BitwiseEqual(session.ForwardAll(), fixture.eval_logits))
        << "variant " << static_cast<int>(variant)
        << " diverged from the training-path eval forward";
  }
}

TEST(InferenceSessionTest, MatchesEvalForwardForAblations) {
  {
    ModelConfig config = SmallConfig();
    config.use_dp_attention = false;
    SessionFixture fixture(config);
    EXPECT_TRUE(
        BitwiseEqual(fixture.Session().ForwardAll(), fixture.eval_logits));
  }
  {
    ModelConfig config = SmallConfig();
    config.use_hop_attention = false;
    SessionFixture fixture(config);
    EXPECT_TRUE(
        BitwiseEqual(fixture.Session().ForwardAll(), fixture.eval_logits));
  }
  {
    ModelConfig config = SmallConfig();
    config.initial_residual = false;
    SessionFixture fixture(config);
    EXPECT_TRUE(
        BitwiseEqual(fixture.Session().ForwardAll(), fixture.eval_logits));
  }
  {
    ModelConfig config = SmallConfig();
    config.propagation_steps = 1;  // hop attention degenerates
    config.num_layers = 3;         // deeper classifier head
    SessionFixture fixture(config);
    EXPECT_TRUE(
        BitwiseEqual(fixture.Session().ForwardAll(), fixture.eval_logits));
  }
}

// One case of the differential sweep below. Every parameter (biases and
// dp_weights included) is drawn at random, so no term of the forward can
// hide behind a zero initialisation.
void ExpectServedEqualsEval(const Dataset& dataset, const ModelConfig& config,
                            uint64_t seed) {
  Rng rng(seed);
  AdpaModel model(dataset, config, &rng);
  std::vector<ParameterShape> shapes;
  for (ag::Variable& param : model.Parameters()) {
    shapes.push_back({param.rows(), param.cols()});
    *param.mutable_value() = Matrix::RandomUniform(param.rows(), param.cols(),
                                                   &rng, -1.0f, 1.0f);
  }
  EXPECT_EQ(AdpaParameterShapes(config,
                                static_cast<int64_t>(model.patterns().size()),
                                dataset.num_nodes(), dataset.feature_dim(),
                                dataset.num_classes),
            shapes);
  const Matrix eval = model.Forward(/*training=*/false, &rng).value();
  Result<serve::InferenceSession> session = serve::InferenceSession::Create(
      MakeCheckpoint(model, "ADPA", dataset, config, TrainConfig()), dataset);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const Matrix all = session->ForwardAll();
  EXPECT_TRUE(BitwiseEqual(all, eval));

  const std::vector<int64_t> nodes = {5, 0, 17, 5, 59, 0};
  Result<Matrix> subset = session->ForwardRows(nodes);
  ASSERT_TRUE(subset.ok()) << subset.status().ToString();
  ASSERT_EQ(subset->rows(), static_cast<int64_t>(nodes.size()));
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(std::memcmp(subset->Row(static_cast<int64_t>(i)),
                          all.Row(nodes[i]),
                          static_cast<size_t>(all.cols()) * sizeof(float)),
              0)
        << "row " << i << " (node " << nodes[i] << ")";
  }
}

// Differential forward sweep over the ModelConfig space: served logits are
// bitwise the model's eval forward, subset queries are bitwise rows of the
// full forward, and AdpaParameterShapes is Parameters()' shape list.
TEST(InferenceSessionTest, DifferentialSweepMatchesEvalForward) {
  const Dataset dataset = Tiny();
  uint64_t cases = 0;
  for (DpAttention variant :
       {DpAttention::kOriginal, DpAttention::kGate, DpAttention::kRecursive,
        DpAttention::kJk}) {
    for (bool dp_attention : {true, false}) {
      for (bool hop_attention : {true, false}) {
        for (bool residual : {true, false}) {
          for (int steps : {1, 2, 3}) {
            for (int order : {1, 2}) {
              for (int layers : {2, 3}) {
                ModelConfig config = SmallConfig();
                config.dp_attention = variant;
                config.use_dp_attention = dp_attention;
                config.use_hop_attention = hop_attention;
                config.initial_residual = residual;
                config.propagation_steps = steps;
                config.pattern_order = order;
                config.num_layers = layers;
                SCOPED_TRACE(testing::Message()
                             << "variant " << static_cast<int>(variant)
                             << " dp_attention " << dp_attention << " hop "
                             << hop_attention << " residual " << residual
                             << " K " << steps << " order " << order
                             << " layers " << layers);
                ExpectServedEqualsEval(dataset, config, ++cases);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4u * 2 * 2 * 2 * 3 * 2 * 2);
}

TEST(InferenceSessionTest, ForwardRowsEqualsFullForwardRows) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  const std::vector<int64_t> nodes = {5, 0, 17, 5, 59};
  Result<Matrix> subset = session.ForwardRows(nodes);
  ASSERT_TRUE(subset.ok());
  ASSERT_EQ(subset->rows(), static_cast<int64_t>(nodes.size()));
  const Matrix full = session.ForwardAll();
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int64_t c = 0; c < full.cols(); ++c) {
      EXPECT_EQ(subset->At(static_cast<int64_t>(i), c),
                full.At(nodes[i], c))
          << "row " << i << " (node " << nodes[i] << ") col " << c;
    }
  }
}

TEST(InferenceSessionTest, RejectsBadInputs) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  EXPECT_FALSE(session.ForwardRows({}).ok());
  EXPECT_FALSE(session.ForwardRows({-1}).ok());
  EXPECT_FALSE(session.ForwardRows({session.num_nodes()}).ok());

  // Wrong dataset: content hash must protect the deployment.
  Dataset other = Tiny(99);
  Result<serve::InferenceSession> mismatch =
      serve::InferenceSession::Create(fixture.checkpoint, other);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);

  // Malformed tensor lists come back as InvalidArgument, never an abort.
  const auto expect_invalid = [&](const Checkpoint& broken) {
    Result<serve::InferenceSession> refused =
        serve::InferenceSession::Create(broken, fixture.dataset);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
  };
  {
    SCOPED_TRACE("one tensor short");
    Checkpoint broken = fixture.checkpoint;
    broken.tensors.pop_back();
    expect_invalid(broken);
  }
  {
    SCOPED_TRACE("one extra trailing tensor");
    Checkpoint broken = fixture.checkpoint;
    broken.tensors.push_back(broken.tensors.back());
    expect_invalid(broken);
  }
  {
    SCOPED_TRACE("one tensor of the wrong shape");
    Checkpoint broken = fixture.checkpoint;
    Matrix& first = broken.tensors.front().value;
    first = Matrix(first.rows(), first.cols() + 1);
    expect_invalid(broken);
  }
  {
    SCOPED_TRACE("kGate tensors under a kJk config");
    ModelConfig gate = SmallConfig();
    gate.dp_attention = DpAttention::kGate;
    Checkpoint broken = SessionFixture(gate).checkpoint;
    broken.model_config.dp_attention = DpAttention::kJk;
    expect_invalid(broken);
  }
  {
    // Refused from the shapes alone: building the model this config
    // describes would allocate 16 GiB for one classifier weight.
    SCOPED_TRACE("hidden raised to the reader's limit over hidden=16 tensors");
    Checkpoint broken = fixture.checkpoint;
    broken.model_config.hidden = CheckpointLimits{}.max_hidden_dim;
    expect_invalid(broken);
  }
}

TEST(InferenceSessionTest, RefusesZeroedDatasetHash) {
  // MakeCheckpoint never writes a zero hash, so a zero is a damaged or
  // forged field, not a "skip the check" wildcard.
  SessionFixture fixture(SmallConfig());
  Checkpoint zeroed = fixture.checkpoint;
  zeroed.dataset_hash = 0;
  Result<serve::InferenceSession> refused =
      serve::InferenceSession::Create(zeroed, fixture.dataset);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InferenceSessionTest, RefusesNonFiniteWeights) {
  // A diverged run checkpoints NaN weights under a valid CRC; served, they
  // answered class 0 for every node. The restore names the tensor instead.
  SessionFixture fixture(SmallConfig());
  for (float poison : {std::numeric_limits<float>::quiet_NaN(),
                       -std::numeric_limits<float>::infinity()}) {
    Checkpoint poisoned = fixture.checkpoint;
    poisoned.tensors[2].value.At(0, 0) = poison;
    Result<serve::InferenceSession> refused =
        serve::InferenceSession::Create(poisoned, fixture.dataset);
    ASSERT_FALSE(refused.ok()) << "served a checkpoint holding " << poison;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find("tensor 2 "),
              std::string::npos)
        << refused.status().ToString();
  }
}

TEST(MicroBatcherTest, CoalescesConcurrentClientsWithoutChangingAnswers) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher::Options options;
  options.max_batch_nodes = 6;  // the flush must split into several forwards
  serve::MicroBatcher batcher(&metrics, options);

  // Ground truth, computed without the batcher.
  const std::vector<std::vector<int64_t>> queries = {
      {0, 1, 2}, {3}, {4, 5}, {6, 7, 8, 9}, {10}, {11, 12},
      {13}, {14, 15}, {16, 17, 18}, {19}, {0, 19}, {7}};
  std::vector<std::vector<int64_t>> expected;
  for (const auto& nodes : queries) {
    expected.push_back(std::move(session.Classify(nodes)).value());
  }

  // Everything a loop turn read from its clients, answered by one flush.
  std::vector<serve::MicroBatcher::Slot> slots(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    batcher.Submit(queries[q], /*deadline_ms=*/0, &slots[q]);
    EXPECT_FALSE(slots[q].has_value()) << "queued requests wait for Flush";
  }
  EXPECT_EQ(batcher.queue_depth(), static_cast<int64_t>(queries.size()));
  batcher.Flush(&session);
  EXPECT_EQ(batcher.queue_depth(), 0);

  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(slots[q].has_value()) << "query " << q;
    ASSERT_TRUE(slots[q]->ok()) << slots[q]->status().ToString();
    EXPECT_EQ(**slots[q], expected[q]) << "query " << q;
  }
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests, queries.size());
  EXPECT_EQ(snapshot.errors, 0u);
  uint64_t total_nodes = 0;
  for (const auto& nodes : queries) total_nodes += nodes.size();
  EXPECT_EQ(snapshot.nodes, total_nodes);
  // 27 nodes under a 6-node cap: at least five forwards, none empty.
  EXPECT_GE(snapshot.batches, 5u);
  EXPECT_LT(snapshot.batches, snapshot.requests);
  EXPECT_EQ(snapshot.max_queue_depth, static_cast<int64_t>(queries.size()));
}

TEST(MicroBatcherTest, ErrorsStayPerRequest) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::MicroBatcher batcher(nullptr, {});
  serve::MicroBatcher::Slot good, bad, also_good;
  batcher.Submit({0, 1}, 0, &good);
  batcher.Submit({session.num_nodes() + 5}, 0, &bad);
  batcher.Submit({2}, 0, &also_good);
  batcher.Flush(&session);
  EXPECT_TRUE(good->ok());
  EXPECT_FALSE(bad->ok());
  EXPECT_TRUE(also_good->ok())
      << "a bad batch mate must not poison this request";
}

TEST(MicroBatcherTest, FullQueueRejectsWithRetryableOverloadError) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher::Options options;
  options.max_queue_depth = 1;
  serve::MicroBatcher batcher(&metrics, options);

  serve::MicroBatcher::Slot accepted, rejected;
  batcher.Submit({0}, 0, &accepted);
  batcher.Submit({1}, 0, &rejected);  // queue already at its ceiling
  EXPECT_FALSE(accepted.has_value());
  ASSERT_TRUE(rejected.has_value()) << "a full queue answers at once";
  ASSERT_FALSE(rejected->ok());
  EXPECT_EQ(rejected->status().code(), StatusCode::kUnavailable)
      << "queue-full must be the retryable overload code, got "
      << rejected->status().ToString();
  EXPECT_NE(rejected->status().message().find("queue full"),
            std::string::npos);

  batcher.Flush(&session);
  EXPECT_TRUE(accepted->ok())
      << "the request that made it into the queue must still be served";
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.rejected, 1u);
  EXPECT_EQ(snapshot.shed, 0u);
}

TEST(MicroBatcherTest, ExpiredDeadlineShedsInsteadOfServingStale) {
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher batcher(&metrics, {});

  serve::MicroBatcher::Slot doomed, patient, forever;
  batcher.Submit({0, 1}, /*deadline_ms=*/1, &doomed);
  batcher.Submit({2}, /*deadline_ms=*/600000, &patient);
  batcher.Submit({3}, /*deadline_ms=*/0, &forever);  // 0 = no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  batcher.Flush(&session);

  ASSERT_FALSE(doomed->ok());
  EXPECT_EQ(doomed->status().code(), StatusCode::kUnavailable);
  EXPECT_NE(doomed->status().message().find("deadline"), std::string::npos);
  EXPECT_TRUE(patient->ok());
  EXPECT_TRUE(forever->ok());
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.shed, 1u);
  EXPECT_EQ(snapshot.rejected, 0u);
}

TEST(MicroBatcherTest, FlushThatShedsEverythingAnswersEverySlot) {
  // A flush whose whole queue is past its deadline runs no forward, but
  // still answers every slot and leaves the queue empty.
  SessionFixture fixture(SmallConfig());
  serve::InferenceSession session = fixture.Session();
  serve::ServeMetrics metrics;
  serve::MicroBatcher batcher(&metrics, {});
  serve::MicroBatcher::Slot first, second;
  batcher.Submit({0}, /*deadline_ms=*/1, &first);
  batcher.Submit({1}, /*deadline_ms=*/1, &second);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  batcher.Flush(&session);
  EXPECT_EQ(batcher.queue_depth(), 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(second->status().code(), StatusCode::kUnavailable);
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.shed, 2u);
  EXPECT_EQ(snapshot.batches, 0u);
}

TEST(ServeMetricsTest, LatencyMemoryIsBoundedButStatsStayRepresentative) {
  // Far more requests than the reservoir holds: the mean must stay exact
  // (running sum) and the sampled percentiles representative of the whole
  // 1..100 ms stream, not just a recent window.
  serve::ServeMetrics metrics;
  constexpr size_t kTotal = 12800;  // > 3x kLatencyReservoirCapacity
  static_assert(kTotal > 3 * serve::ServeMetrics::kLatencyReservoirCapacity,
                "test must overflow the reservoir");
  for (size_t i = 0; i < kTotal; ++i) {
    metrics.RecordRequest(static_cast<double>(i % 100) + 1.0, 1, true);
  }
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests, kTotal);
  EXPECT_NEAR(snapshot.mean_latency_ms, 50.5, 1e-9);
  EXPECT_NEAR(snapshot.p50_latency_ms, 50.0, 10.0);
  EXPECT_NEAR(snapshot.p99_latency_ms, 99.0, 5.0);
  EXPECT_GT(snapshot.p99_latency_ms, snapshot.p50_latency_ms);
  // The reservoir's replacement draws come from a fixed splitmix64 stream,
  // so the sampled percentiles are exact.
  EXPECT_EQ(snapshot.p50_latency_ms, 49.0);
  EXPECT_EQ(snapshot.p99_latency_ms, 100.0);
}

TEST(ServeMetricsTest, CountersAreExact) {
  // Mixed outcomes, coalesced batches and direct queue-depth records, in 8
  // rounds of 2000 iterations; every total is exact.
  constexpr int kRounds = 8;
  constexpr int kPerRound = 2000;
  serve::ServeMetrics metrics;
  for (int t = 0; t < kRounds; ++t) {
    for (int i = 0; i < kPerRound; ++i) {
      const bool ok = (i % 4) != 0;
      metrics.RecordRequest(/*latency_ms=*/1.0 + i % 7,
                            /*nodes_answered=*/3, ok);
      metrics.RecordBatch(/*coalesced_requests=*/2);
      metrics.RecordQueueDepth(/*depth=*/t * kPerRound + i);
      if (i % 5 == 0) metrics.RecordRejected();
      if (i % 6 == 0) metrics.RecordShed();
    }
  }

  const serve::MetricsSnapshot snap = metrics.Snapshot();
  const uint64_t total = uint64_t{kRounds} * kPerRound;
  EXPECT_EQ(snap.requests, total);
  EXPECT_EQ(snap.errors, total / 4);
  EXPECT_EQ(snap.nodes, 3 * total);
  EXPECT_EQ(snap.batches, total);
  EXPECT_EQ(snap.rejected, kRounds * ((kPerRound + 4) / 5));
  EXPECT_EQ(snap.shed, kRounds * ((kPerRound + 5) / 6));
  EXPECT_EQ(snap.max_queue_depth, int64_t{kRounds} * kPerRound - 1);
  EXPECT_EQ(snap.mean_batch_requests, 2.0);
  EXPECT_GT(snap.mean_latency_ms, 0.0);
}

TEST(ServeMetricsTest, PercentilesUseNearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(serve::Percentile(values, 50.0), 50.0);
  EXPECT_EQ(serve::Percentile(values, 99.0), 99.0);
  EXPECT_EQ(serve::Percentile(values, 100.0), 100.0);
  EXPECT_EQ(serve::Percentile(values, 0.0), 1.0);
  EXPECT_EQ(serve::Percentile({}, 50.0), 0.0);
}

TEST(JsonlTest, ParsesTheRequestSchema) {
  Result<serve::ServeRequest> request =
      serve::ParseRequestLine(R"({"id": 7, "nodes": [0, 12, 3]})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, 7);
  EXPECT_EQ(request->nodes, (std::vector<int64_t>{0, 12, 3}));

  // Key order is free; empty arrays and negative ids are legal JSON here.
  request = serve::ParseRequestLine(R"({"nodes":[],"id":-2})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, -2);
  EXPECT_TRUE(request->nodes.empty());
}

TEST(JsonlTest, RejectsEverythingOutsideTheSchema) {
  const char* bad[] = {
      "",
      "not json",
      "{}",
      R"({"id": 1})",
      R"({"nodes": [1]})",
      R"({"id": 1, "nodes": [1], "extra": 2})",
      R"({"id": 1, "id": 2, "nodes": []})",
      R"({"id": 1, "nodes": [1,]})",
      R"({"id": 1, "nodes": [1]} trailing)",
      R"({"id": 99999999999999999999, "nodes": []})",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(serve::ParseRequestLine(line).ok())
        << "accepted: " << line;
  }
  // The node-count ceiling must bound the array before building it.
  EXPECT_FALSE(
      serve::ParseRequestLine(R"({"id":1,"nodes":[1,2,3]})", 2).ok());
}

TEST(JsonlTest, FormatsRepliesWithEscaping) {
  EXPECT_EQ(serve::FormatClassesReply(7, {1, 0, 2}),
            R"({"id":7,"classes":[1,0,2]})");
  EXPECT_EQ(serve::FormatClassesReply(-1, {}), R"({"id":-1,"classes":[]})");
  EXPECT_EQ(serve::FormatErrorReply(3, "bad \"node\"\n"),
            R"({"id":3,"error":"bad \"node\"\n"})");
}

TEST(JsonlTest, ParsesOptionalDeadline) {
  Result<serve::ServeRequest> request = serve::ParseRequestLine(
      R"({"id": 7, "nodes": [1], "deadline_ms": 50})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->deadline_ms, 50);

  request = serve::ParseRequestLine(R"({"deadline_ms":0,"id":1,"nodes":[]})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->deadline_ms, 0);

  // Absent key means no deadline.
  request = serve::ParseRequestLine(R"({"id":1,"nodes":[2]})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->deadline_ms, 0);

  EXPECT_FALSE(serve::ParseRequestLine(
                   R"({"id":1,"nodes":[],"deadline_ms":-5})")
                   .ok());
  EXPECT_FALSE(serve::ParseRequestLine(
                   R"({"id":1,"nodes":[],"deadline_ms":1,"deadline_ms":2})")
                   .ok());
}

TEST(JsonlTest, FormatsTheStructuredOverloadReply) {
  EXPECT_EQ(serve::FormatOverloadedReply(9, "queue full"),
            R"({"id":9,"error":"overloaded","detail":"queue full"})");
  EXPECT_EQ(serve::FormatOverloadedReply(-1, "say \"later\"\n"),
            R"({"id":-1,"error":"overloaded","detail":"say \"later\"\n"})");
}

}  // namespace
}  // namespace adpa
