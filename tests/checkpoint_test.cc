// Checkpoint format tests: exact round-trips, hostile-input rejection
// (truncation, bad magic, version skew, CRC corruption, limit breaches,
// size claims the bytes do not back, non-regular paths), and the Eq. 9
// propagation key.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/hash.h"
#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/io/binary.h"
#include "src/io/checkpoint.h"
#include "src/models/adpa.h"
#include "src/models/factory.h"
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

/// Trains a small ADPA model for 3 epochs and checkpoints it.
struct TrainedFixture {
  Dataset dataset;
  ModelPtr model;
  ModelConfig config;
  TrainConfig train_config;
  Checkpoint checkpoint;
  Matrix logits;  // eval forward after training

  explicit TrainedFixture(uint64_t seed = 7) : dataset(Tiny(seed)) {
    config.hidden = 16;
    config.dropout = 0.2f;
    Rng rng(seed);
    model = std::move(CreateModel("ADPA", dataset, config, &rng)).value();
    train_config.max_epochs = 3;
    train_config.patience = 0;
    TrainModel(model.get(), dataset, train_config, &rng);
    logits = model->Forward(/*training=*/false, &rng).value();
    checkpoint =
        MakeCheckpoint(*model, "ADPA", dataset, config, train_config);
  }
};

std::string Serialize(const Checkpoint& checkpoint) {
  std::ostringstream out;
  EXPECT_TRUE(SaveCheckpointToStream(checkpoint, out).ok());
  return out.str();
}

Result<Checkpoint> Deserialize(const std::string& bytes,
                               const CheckpointLimits& limits = {}) {
  std::istringstream in(bytes);
  return TryLoadCheckpointFromStream(in, limits);
}

TEST(CheckpointTest, RoundTripIsExact) {
  TrainedFixture fixture;
  Result<Checkpoint> loaded = Deserialize(Serialize(fixture.checkpoint));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->model_name, "ADPA");
  EXPECT_EQ(loaded->dataset_name, fixture.dataset.name);
  EXPECT_EQ(loaded->dataset_hash, DatasetContentHash(fixture.dataset));
  EXPECT_EQ(loaded->model_config.hidden, fixture.config.hidden);
  EXPECT_EQ(loaded->model_config.dropout, fixture.config.dropout);
  EXPECT_EQ(loaded->model_config.propagation_steps,
            fixture.config.propagation_steps);
  EXPECT_EQ(loaded->model_config.conv_r, fixture.config.conv_r);
  EXPECT_EQ(static_cast<int>(loaded->model_config.dp_attention),
            static_cast<int>(fixture.config.dp_attention));
  EXPECT_EQ(loaded->train_config.max_epochs, 3);
  EXPECT_EQ(loaded->train_config.learning_rate,
            fixture.train_config.learning_rate);
  EXPECT_EQ(loaded->patterns, fixture.checkpoint.patterns);
  ASSERT_EQ(loaded->tensors.size(), fixture.checkpoint.tensors.size());
  for (size_t i = 0; i < loaded->tensors.size(); ++i) {
    EXPECT_EQ(loaded->tensors[i].name, fixture.checkpoint.tensors[i].name);
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].value,
                             fixture.checkpoint.tensors[i].value))
        << "tensor " << loaded->tensors[i].name << " changed in transit";
  }
}

TEST(CheckpointTest, RestoredModelReproducesLogitsAndAccuracyExactly) {
  TrainedFixture fixture;
  Result<Checkpoint> loaded = Deserialize(Serialize(fixture.checkpoint));
  ASSERT_TRUE(loaded.ok());

  // A *differently seeded* fresh model: every parameter starts different,
  // so agreement below can only come from the checkpoint.
  Rng other_rng(999);
  ModelPtr restored =
      std::move(
          CreateModel(loaded->model_name, fixture.dataset,
                      loaded->model_config, &other_rng))
          .value();
  ASSERT_TRUE(LoadCheckpointIntoModel(*loaded, restored.get()).ok());

  const Matrix restored_logits =
      restored->Forward(/*training=*/false, &other_rng).value();
  EXPECT_TRUE(BitwiseEqual(restored_logits, fixture.logits))
      << "restored logits are not bitwise identical";
  EXPECT_EQ(Accuracy(restored_logits, fixture.dataset.labels,
                     fixture.dataset.test_idx),
            Accuracy(fixture.logits, fixture.dataset.labels,
                     fixture.dataset.test_idx));
}

TEST(CheckpointTest, FileRoundTripIsExact) {
  TrainedFixture fixture;
  const std::string path = testing::TempDir() + "/ckpt_roundtrip.bin";
  ASSERT_TRUE(SaveCheckpoint(fixture.checkpoint, path).ok());
  Result<Checkpoint> loaded = TryLoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->tensors.size(), fixture.checkpoint.tensors.size());
  for (size_t i = 0; i < loaded->tensors.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(loaded->tensors[i].value,
                             fixture.checkpoint.tensors[i].value));
  }
}

TEST(CheckpointTest, SingleCorruptedPayloadByteIsRejectedByCrc) {
  TrainedFixture fixture;
  std::string bytes = Serialize(fixture.checkpoint);
  ASSERT_GT(bytes.size(), 24u);
  // Flip one bit in the middle of the payload (well past the header).
  const size_t victim = 24 + (bytes.size() - 24) / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x01);
  Result<Checkpoint> loaded = Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << "CRC rejection should say so: " << loaded.status().ToString();
}

TEST(CheckpointTest, EveryTruncationIsRejectedNotCrashed) {
  TrainedFixture fixture;
  const std::string bytes = Serialize(fixture.checkpoint);
  for (size_t len : {size_t{0}, size_t{4}, size_t{12}, size_t{20},
                     size_t{24}, bytes.size() / 2, bytes.size() - 1}) {
    Result<Checkpoint> loaded = Deserialize(bytes.substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(CheckpointTest, BadMagicIsRejected) {
  TrainedFixture fixture;
  std::string bytes = Serialize(fixture.checkpoint);
  bytes[0] = 'X';
  Result<Checkpoint> loaded = Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST(CheckpointTest, UnsupportedVersionIsRejected) {
  TrainedFixture fixture;
  std::string bytes = Serialize(fixture.checkpoint);
  bytes[8] = 9;  // version field (little-endian u32 at offset 8)
  Result<Checkpoint> loaded = Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(CheckpointTest, LimitsAreEnforcedBeforeAllocation) {
  TrainedFixture fixture;
  const std::string bytes = Serialize(fixture.checkpoint);

  CheckpointLimits tiny_payload;
  tiny_payload.max_payload_bytes = 16;
  EXPECT_FALSE(Deserialize(bytes, tiny_payload).ok());

  CheckpointLimits few_tensors;
  few_tensors.max_tensors = 1;
  EXPECT_FALSE(Deserialize(bytes, few_tensors).ok());

  CheckpointLimits short_names;
  short_names.max_name_bytes = 2;
  EXPECT_FALSE(Deserialize(bytes, short_names).ok());

  CheckpointLimits small_tensors;
  small_tensors.max_tensor_entries = 4;
  EXPECT_FALSE(Deserialize(bytes, small_tensors).ok());

  CheckpointLimits few_patterns;
  few_patterns.max_patterns = 1;
  EXPECT_FALSE(Deserialize(bytes, few_patterns).ok());
}

TEST(CheckpointTest, DropoutOutsideItsRangeIsRejected) {
  // Dropout CHECK-fails on p outside [0, 1), so a checkpoint (or a
  // --resume_from snapshot) carrying one must be refused at load.
  TrainedFixture fixture;
  for (const float dropout : {1.0f, -0.5f, std::nanf("")}) {
    Checkpoint checkpoint = fixture.checkpoint;
    checkpoint.model_config.dropout = dropout;
    const Result<Checkpoint> loaded = Deserialize(Serialize(checkpoint));
    ASSERT_FALSE(loaded.ok()) << dropout;
    EXPECT_NE(loaded.status().message().find("dropout"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(CheckpointTest, LoadIntoMismatchedModelFailsWithShapeError) {
  TrainedFixture fixture;
  Result<Checkpoint> loaded = Deserialize(Serialize(fixture.checkpoint));
  ASSERT_TRUE(loaded.ok());
  ModelConfig other = fixture.config;
  other.hidden = 8;  // different classifier shapes
  Rng rng(1);
  ModelPtr mismatched =
      std::move(CreateModel("ADPA", fixture.dataset, other, &rng)).value();
  const Status status = LoadCheckpointIntoModel(*loaded, mismatched.get());
  ASSERT_FALSE(status.ok());
}

TEST(CheckpointTest, DatasetHashIsContentSensitive) {
  Dataset a = Tiny(3);
  const uint64_t base = DatasetContentHash(a);
  Dataset b = Tiny(3);
  EXPECT_EQ(DatasetContentHash(b), base) << "hash must be deterministic";
  b.features.At(0, 0) += 1.0f;
  EXPECT_NE(DatasetContentHash(b), base);
  Dataset c = Tiny(3);
  c.labels[0] = (c.labels[0] + 1) % c.num_classes;
  EXPECT_NE(DatasetContentHash(c), base);
}

TEST(PropagationCacheTest, KeyTracksEveryPropagationInput) {
  Dataset ds = Tiny(12);
  ModelConfig config;
  const std::vector<DirectedPattern> patterns = EnumeratePatterns(2);
  const PropagationCacheKey base =
      MakePropagationCacheKey(ds, config, patterns);

  ModelConfig other = config;
  other.conv_r = 0.25;
  EXPECT_FALSE(MakePropagationCacheKey(ds, other, patterns) == base);
  other = config;
  other.propagation_steps = 5;
  EXPECT_FALSE(MakePropagationCacheKey(ds, other, patterns) == base);
  other = config;
  other.propagation_self_loops = !other.propagation_self_loops;
  EXPECT_FALSE(MakePropagationCacheKey(ds, other, patterns) == base);

  Dataset changed = Tiny(12);
  changed.features.At(1, 1) += 0.5f;
  EXPECT_FALSE(MakePropagationCacheKey(changed, config, patterns) == base);

  EXPECT_FALSE(MakePropagationCacheKey(ds, config, EnumeratePatterns(1)) ==
               base);
}

TEST(CheckpointTest, RestoreWithRecordedPatternsSkipsRederivation) {
  // Correlation-selected pattern subsets (select_patterns > 0) depend on
  // the train split, which DatasetContentHash does not cover. The restore
  // path must install the checkpoint's recorded set, not re-derive one.
  Dataset dataset = Tiny(17);
  ModelConfig config;
  config.hidden = 16;
  config.pattern_order = 2;
  config.select_patterns = 2;
  Rng rng(7);
  ModelPtr model =
      std::move(CreateModel("ADPA", dataset, config, &rng)).value();
  TrainConfig train_config;
  train_config.max_epochs = 2;
  train_config.patience = 0;
  TrainModel(model.get(), dataset, train_config, &rng);
  const Matrix logits = model->Forward(/*training=*/false, &rng).value();
  const Checkpoint checkpoint =
      MakeCheckpoint(*model, "ADPA", dataset, config, train_config);
  ASSERT_EQ(checkpoint.patterns.size(), 2u);

  // Same dataset content (hash unchanged), different labeled subset: any
  // re-derived selection is untrustworthy here, the recorded one is not.
  std::reverse(dataset.train_idx.begin(), dataset.train_idx.end());
  dataset.train_idx.resize(dataset.train_idx.size() / 2);
  Rng other_rng(999);
  ModelPtr restored = std::move(CreateModelWithPatterns(
                                    "ADPA", dataset, checkpoint.model_config,
                                    checkpoint.patterns, &other_rng))
                          .value();
  ASSERT_TRUE(LoadCheckpointIntoModel(checkpoint, restored.get()).ok());
  const auto* adpa = dynamic_cast<const AdpaModel*>(restored.get());
  ASSERT_NE(adpa, nullptr);
  EXPECT_EQ(adpa->patterns(), checkpoint.patterns);
  const Matrix restored_logits =
      restored->Forward(/*training=*/false, &other_rng).value();
  EXPECT_TRUE(BitwiseEqual(restored_logits, logits))
      << "restored model does not propagate with the recorded patterns";
}

/// Peak resident set size of this process (VmHWM), in KiB.
int64_t PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

/// Recomputes the container CRC over the payload, so a forged payload gets
/// past the checksum as any writer's would.
std::string Reseal(std::string bytes) {
  const uint32_t crc = Crc32(bytes.data() + 24, bytes.size() - 24);
  std::memcpy(&bytes[12], &crc, sizeof(crc));
  return bytes;
}

/// Loads `bytes` in a death-test child, whose peak RSS starts from the
/// child's own baseline whatever ran earlier in this process. The child
/// prints the load status (matched against `status_regex`) and exits 0 iff
/// the load failed and peak RSS grew by less than 64 MiB.
void ExpectRefusedInBoundedMemory(const std::string& bytes,
                                  const std::string& status_regex) {
  EXPECT_EXIT(
      {
        const int64_t before = PeakRssKib();
        const Result<Checkpoint> loaded = Deserialize(bytes);
        const int64_t growth = PeakRssKib() - before;
        std::fprintf(stderr, "%s; peak RSS grew by %lld KiB\n",
                     loaded.status().ToString().c_str(),
                     static_cast<long long>(growth));
        _exit(before > 0 && !loaded.ok() && growth < 64 * 1024 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), status_regex);
}

TEST(CheckpointTest, PayloadSizeClaimDoesNotSizeTheBuffer) {
  // A bare 24-byte header claiming the largest payload the default limits
  // allow (2 GiB); the read must fail having buffered what arrived.
  std::string bytes = Serialize(Checkpoint{});
  bytes.resize(24);
  const uint64_t claimed = CheckpointLimits().max_payload_bytes;
  std::memcpy(&bytes[16], &claimed, sizeof(claimed));
  ExpectRefusedInBoundedMemory(bytes, "truncated payload");
}

TEST(CheckpointTest, ForgedTensorShapeDoesNotSizeTheMatrix) {
  // One 0 x 0 tensor, then its shape header forged to 20000 x 25000 (the
  // default entry ceiling exactly) under a valid CRC: the payload holds
  // one byte after the header, so no such matrix may be allocated.
  Checkpoint checkpoint;
  checkpoint.tensors.push_back(NamedTensor{"forged", Matrix(0, 0)});
  std::string bytes = Serialize(checkpoint);
  // Payload tail: i64 rows, i64 cols, u8 has_train_state.
  const size_t shape = bytes.size() - 17;
  const int64_t rows = 20000, cols = 25000;
  ASSERT_EQ(rows * cols, CheckpointLimits().max_tensor_entries);
  std::memcpy(&bytes[shape], &rows, sizeof(rows));
  std::memcpy(&bytes[shape + 8], &cols, sizeof(cols));
  ExpectRefusedInBoundedMemory(Reseal(bytes), "InvalidArgument");
}

TEST(CheckpointTest, FifoPathIsRefusedWithoutBlocking) {
  // open() on a FIFO with no writer blocks until one appears; a reload of
  // such a path would freeze the serving loop. The child's alarm turns a
  // regression into a failure instead of a hung suite.
  const std::string path =
      testing::TempDir() + "/checkpoint_fifo_" + std::to_string(getpid());
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  EXPECT_EXIT(
      {
        alarm(5);
        const Result<Checkpoint> loaded = TryLoadCheckpoint(path);
        _exit(!loaded.ok() &&
                      loaded.status().code() == StatusCode::kInvalidArgument
                  ? 0
                  : 1);
      },
      ::testing::ExitedWithCode(0), "");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adpa
