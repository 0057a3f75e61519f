// Crash-recovery tests (DESIGN.md §10): atomic file replacement keeps an
// old-or-new-complete artifact through a crash at every stage of Commit;
// training snapshots round-trip the full TrainState; a resumed run reaches
// bitwise-identical final weights.
//
// Crash-injection cases run child processes via gtest death tests and are
// skipped when failpoints are compiled out (use the `recovery` preset).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/core/failpoint.h"
#include "src/core/random.h"
#include "src/data/generators.h"
#include "src/data/splits.h"
#include "src/io/atomic_file.h"
#include "src/io/checkpoint.h"
#include "src/models/factory.h"
#include "src/tensor/optimizer.h"
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

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Atomic file replacement.
// ---------------------------------------------------------------------------

TEST(AtomicFileTest, ReplacesExistingFileAtomically) {
  const std::string path = testing::TempDir() + "/atomic_replace.bin";
  ASSERT_TRUE(WriteFileAtomically(path, "old contents").ok());
  ASSERT_TRUE(WriteFileAtomically(path, "new contents").ok());
  EXPECT_EQ(ReadFileOrEmpty(path), "new contents");
  EXPECT_EQ(ReadFileOrEmpty(path + ".tmp"), "") << "temp must not linger";
  std::remove(path.c_str());
}

TEST(AtomicFileTest, CommitIsSingleShot) {
  const std::string path = testing::TempDir() + "/atomic_single.bin";
  AtomicFileWriter writer(path);
  writer.stream() << "payload";
  ASSERT_TRUE(writer.Commit().ok());
  const Status second = writer.Commit();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(AtomicFileTest, UnwritableDirectoryIsAStatusNotACrash) {
  const Status status =
      WriteFileAtomically("/nonexistent/dir/never/file.bin", "x");
  ASSERT_FALSE(status.ok());
}

class AtomicCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::CompiledIn()) {
      GTEST_SKIP() << "failpoints compiled out; build with "
                      "-DADPA_FAILPOINTS=ON (the `recovery` preset)";
    }
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    failpoint::ClearAll();
  }
  void TearDown() override {
    if (failpoint::CompiledIn()) failpoint::ClearAll();
  }
};

// Crash the child mid-Commit at `point`; the parent then asserts the
// destination still holds exactly the previous contents (crash before the
// rename) or exactly the new contents (crash after) — never a torn file.
void CrashDuringCommit(const std::string& path, const char* point) {
  EXPECT_EXIT(
      {
        const Status armed = failpoint::Configure(point, "crash");
        if (!armed.ok()) _exit(7);
        (void)WriteFileAtomically(path, "NEW-PAYLOAD-NEW-PAYLOAD");
        _exit(0);  // crash action must have fired before this
      },
      ::testing::ExitedWithCode(42), "");
}

TEST_F(AtomicCrashTest, CrashBeforeTempWriteKeepsOldFile) {
  const std::string path = testing::TempDir() + "/crash_open.bin";
  ASSERT_TRUE(WriteFileAtomically(path, "OLD").ok());
  CrashDuringCommit(path, "atomic_file.open");
  EXPECT_EQ(ReadFileOrEmpty(path), "OLD");
  std::remove(path.c_str());
}

TEST_F(AtomicCrashTest, CrashMidTempWriteKeepsOldFile) {
  const std::string path = testing::TempDir() + "/crash_partial.bin";
  ASSERT_TRUE(WriteFileAtomically(path, "OLD").ok());
  CrashDuringCommit(path, "atomic_file.write.partial");
  EXPECT_EQ(ReadFileOrEmpty(path), "OLD")
      << "a half-written temp must never reach the destination";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(AtomicCrashTest, CrashJustBeforeRenameKeepsOldFile) {
  const std::string path = testing::TempDir() + "/crash_before_rename.bin";
  ASSERT_TRUE(WriteFileAtomically(path, "OLD").ok());
  CrashDuringCommit(path, "atomic_file.before_rename");
  EXPECT_EQ(ReadFileOrEmpty(path), "OLD");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(AtomicCrashTest, CrashAfterRenameLeavesNewCompleteFile) {
  const std::string path = testing::TempDir() + "/crash_after_rename.bin";
  ASSERT_TRUE(WriteFileAtomically(path, "OLD").ok());
  CrashDuringCommit(path, "atomic_file.after_rename");
  EXPECT_EQ(ReadFileOrEmpty(path), "NEW-PAYLOAD-NEW-PAYLOAD")
      << "once the rename lands the new file must be complete";
  std::remove(path.c_str());
}

TEST_F(AtomicCrashTest, LeftoverTempFromACrashIsIgnoredAndHealed) {
  const std::string path = testing::TempDir() + "/crash_leftover.bin";
  ASSERT_TRUE(WriteFileAtomically(path, "OLD").ok());
  CrashDuringCommit(path, "atomic_file.before_rename");
  // The crashed writer may leave <path>.tmp behind; the next full Commit
  // against the same path must simply overwrite it.
  ASSERT_TRUE(WriteFileAtomically(path, "HEALED").ok());
  EXPECT_EQ(ReadFileOrEmpty(path), "HEALED");
  EXPECT_EQ(ReadFileOrEmpty(path + ".tmp"), "");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// TrainState persistence (checkpoint container v2).
// ---------------------------------------------------------------------------

TEST(TrainStateTest, SnapshotRoundTripsTheFullTrainingCursor) {
  Dataset dataset = Tiny(7);
  ModelConfig config;
  config.hidden = 16;
  Rng rng(7);
  ModelPtr model =
      std::move(CreateModel("ADPA", dataset, config, &rng)).value();
  Checkpoint snapshot =
      MakeCheckpoint(*model, "ADPA", dataset, config, TrainConfig());

  TrainState state;
  state.next_epoch = 12;
  state.epochs_since_best = 3;
  state.best_epoch = 8;
  state.best_val_accuracy = 0.625;
  state.test_accuracy = 0.5;
  state.rng = rng.SaveState();
  state.optimizer_step_count = 12;
  Adam optimizer(model->Parameters(), 0.01f, 5e-4f);
  AdamState adam = optimizer.ExportState();
  state.adam_first_moment = adam.first_moment;
  state.adam_second_moment = adam.second_moment;
  state.val_curve = {0.1, 0.5, 0.625};
  state.train_loss_curve = {1.0, 0.7, 0.6};
  snapshot.train_state = state;

  std::ostringstream out;
  ASSERT_TRUE(SaveCheckpointToStream(snapshot, out).ok());
  std::istringstream in(out.str());
  Result<Checkpoint> loaded = TryLoadCheckpointFromStream(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->train_state.has_value());
  const TrainState& restored = *loaded->train_state;
  EXPECT_EQ(restored.next_epoch, 12);
  EXPECT_EQ(restored.epochs_since_best, 3);
  EXPECT_EQ(restored.best_epoch, 8);
  EXPECT_EQ(restored.best_val_accuracy, 0.625);
  EXPECT_EQ(restored.test_accuracy, 0.5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restored.rng.words[i], state.rng.words[i]);
  }
  EXPECT_EQ(restored.rng.has_cached_normal, state.rng.has_cached_normal);
  EXPECT_EQ(restored.optimizer_step_count, 12);
  ASSERT_EQ(restored.adam_first_moment.size(), state.adam_first_moment.size());
  for (size_t i = 0; i < restored.adam_first_moment.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(restored.adam_first_moment[i],
                             state.adam_first_moment[i]));
    EXPECT_TRUE(BitwiseEqual(restored.adam_second_moment[i],
                             state.adam_second_moment[i]));
  }
  EXPECT_EQ(restored.val_curve, state.val_curve);
  EXPECT_EQ(restored.train_loss_curve, state.train_loss_curve);
}

TEST(TrainStateTest, FinalCheckpointsCarryNoTrainState) {
  Dataset dataset = Tiny(7);
  ModelConfig config;
  config.hidden = 16;
  Rng rng(7);
  ModelPtr model =
      std::move(CreateModel("ADPA", dataset, config, &rng)).value();
  const Checkpoint final_checkpoint =
      MakeCheckpoint(*model, "ADPA", dataset, config, TrainConfig());
  std::ostringstream out;
  ASSERT_TRUE(SaveCheckpointToStream(final_checkpoint, out).ok());
  std::istringstream in(out.str());
  Result<Checkpoint> loaded = TryLoadCheckpointFromStream(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->train_state.has_value());
}

// ---------------------------------------------------------------------------
// Resumable training.
// ---------------------------------------------------------------------------

struct RunArtifacts {
  TrainResult result;
  std::vector<Matrix> weights;
};

RunArtifacts WeightsAfter(Model* model, const TrainResult& result) {
  RunArtifacts artifacts;
  artifacts.result = result;
  for (const ag::Variable& p : model->Parameters()) {
    artifacts.weights.push_back(p.value());
  }
  return artifacts;
}

TEST(ResumableTrainingTest, ResumeReachesBitwiseIdenticalFinalWeights) {
  const std::string snapshot_path =
      testing::TempDir() + "/resume_snapshot.ckpt";
  std::remove(snapshot_path.c_str());
  const Dataset dataset = Tiny(11);
  ModelConfig config;
  config.hidden = 16;
  config.dropout = 0.3f;  // dropout draws make the RNG restore load-bearing
  constexpr int kEpochs = 14;
  constexpr int kSnapshotEvery = 6;  // snapshot lands mid-run at epoch 6, 12

  // Reference: one uninterrupted run.
  Rng ref_rng(31);
  ModelPtr reference =
      std::move(CreateModel("ADPA", dataset, config, &ref_rng)).value();
  TrainConfig plain;
  plain.max_epochs = kEpochs;
  plain.patience = 0;  // fixed-length run keeps the comparison exact
  const RunArtifacts uninterrupted = WeightsAfter(
      reference.get(), TrainModel(reference.get(), dataset, plain, &ref_rng));

  // Interrupted run: train with periodic snapshots, stop after epoch 12
  // (as if the process had died), then resume from the snapshot.
  Rng first_rng(31);
  ModelPtr first =
      std::move(CreateModel("ADPA", dataset, config, &first_rng)).value();
  TrainConfig with_snapshots = plain;
  with_snapshots.max_epochs = 12;  // "crash" after the epoch-12 snapshot
  with_snapshots.checkpoint_every = kSnapshotEvery;
  with_snapshots.checkpoint_path = snapshot_path;
  SnapshotContext context;
  context.model_name = "ADPA";
  context.model_config = config;
  Result<TrainResult> interrupted = TrainModelResumable(
      first.get(), dataset, with_snapshots, &first_rng, &context);
  ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();

  // Resume in a fresh "process": a differently-seeded model whose weights,
  // optimizer, and RNG all come from the snapshot.
  Result<Checkpoint> snapshot = TryLoadCheckpoint(snapshot_path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(snapshot->train_state.has_value());
  EXPECT_EQ(snapshot->train_state->next_epoch, 12);
  Rng resumed_rng(999);
  ModelPtr resumed = std::move(CreateModelWithPatterns(
                                   "ADPA", dataset, snapshot->model_config,
                                   snapshot->patterns, &resumed_rng))
                         .value();
  TrainConfig resume_config = plain;
  resume_config.resume_from = snapshot_path;
  Result<TrainResult> finished = TrainModelResumable(
      resumed.get(), dataset, resume_config, &resumed_rng, &context);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  EXPECT_EQ(finished->resumed_from_epoch, 12);
  EXPECT_EQ(finished->epochs_run, kEpochs);

  const RunArtifacts recovered = WeightsAfter(resumed.get(), *finished);
  ASSERT_EQ(recovered.weights.size(), uninterrupted.weights.size());
  for (size_t i = 0; i < recovered.weights.size(); ++i) {
    EXPECT_TRUE(
        BitwiseEqual(recovered.weights[i], uninterrupted.weights[i]))
        << "parameter " << i << " diverged after resume";
  }
  EXPECT_EQ(recovered.result.best_val_accuracy,
            uninterrupted.result.best_val_accuracy);
  EXPECT_EQ(recovered.result.test_accuracy,
            uninterrupted.result.test_accuracy);
  EXPECT_EQ(recovered.result.best_epoch, uninterrupted.result.best_epoch);
  std::remove(snapshot_path.c_str());
}

TEST(ResumableTrainingTest, FinalCheckpointIsByteIdenticalAfterResume) {
  // The artifact a downstream consumer sees must not betray whether the
  // producing run was ever interrupted.
  const std::string snapshot_path =
      testing::TempDir() + "/resume_bytes.ckpt";
  std::remove(snapshot_path.c_str());
  const Dataset dataset = Tiny(13);
  ModelConfig config;
  config.hidden = 16;
  TrainConfig plain;
  plain.max_epochs = 8;
  plain.patience = 0;

  Rng ref_rng(5);
  ModelPtr reference =
      std::move(CreateModel("ADPA", dataset, config, &ref_rng)).value();
  TrainModel(reference.get(), dataset, plain, &ref_rng);
  std::ostringstream reference_bytes;
  ASSERT_TRUE(SaveCheckpointToStream(
                  MakeCheckpoint(*reference, "ADPA", dataset, config, plain),
                  reference_bytes)
                  .ok());

  Rng first_rng(5);
  ModelPtr first =
      std::move(CreateModel("ADPA", dataset, config, &first_rng)).value();
  TrainConfig half = plain;
  half.max_epochs = 4;
  half.checkpoint_every = 4;
  half.checkpoint_path = snapshot_path;
  SnapshotContext context;
  context.model_name = "ADPA";
  context.model_config = config;
  ASSERT_TRUE(TrainModelResumable(first.get(), dataset, half, &first_rng,
                                  &context)
                  .ok());

  Result<Checkpoint> snapshot = TryLoadCheckpoint(snapshot_path);
  ASSERT_TRUE(snapshot.ok());
  Rng resumed_rng(1234);
  ModelPtr resumed = std::move(CreateModelWithPatterns(
                                   "ADPA", dataset, snapshot->model_config,
                                   snapshot->patterns, &resumed_rng))
                         .value();
  TrainConfig resume_config = plain;
  resume_config.resume_from = snapshot_path;
  ASSERT_TRUE(TrainModelResumable(resumed.get(), dataset, resume_config,
                                  &resumed_rng, &context)
                  .ok());
  std::ostringstream resumed_bytes;
  // Serialize with the *plain* train config, as an uninterrupted run would:
  // resume mechanics are not hyperparameters and are never serialized.
  ASSERT_TRUE(SaveCheckpointToStream(
                  MakeCheckpoint(*resumed, "ADPA", dataset, config, plain),
                  resumed_bytes)
                  .ok());
  EXPECT_EQ(resumed_bytes.str(), reference_bytes.str());
  std::remove(snapshot_path.c_str());
}

TEST(ResumableTrainingTest, ResumingAFinalCheckpointIsRefused) {
  const std::string path = testing::TempDir() + "/final_only.ckpt";
  const Dataset dataset = Tiny(17);
  ModelConfig config;
  config.hidden = 16;
  Rng rng(3);
  ModelPtr model =
      std::move(CreateModel("ADPA", dataset, config, &rng)).value();
  ASSERT_TRUE(
      SaveCheckpoint(MakeCheckpoint(*model, "ADPA", dataset, config,
                                    TrainConfig()),
                     path)
          .ok());
  TrainConfig resume_config;
  resume_config.max_epochs = 2;
  resume_config.resume_from = path;
  Result<TrainResult> result =
      TrainModelResumable(model.get(), dataset, resume_config, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("without training state"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ResumableTrainingTest, SnapshotWriteFailureWarnsButTrainingFinishes) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  failpoint::ClearAll();
  ASSERT_TRUE(failpoint::Configure("trainer.snapshot", "error").ok());
  const std::string path = testing::TempDir() + "/doomed_snapshot.ckpt";
  std::remove(path.c_str());
  const Dataset dataset = Tiny(19);
  ModelConfig config;
  config.hidden = 16;
  Rng rng(3);
  ModelPtr model =
      std::move(CreateModel("ADPA", dataset, config, &rng)).value();
  TrainConfig train_config;
  train_config.max_epochs = 4;
  train_config.patience = 0;
  train_config.checkpoint_every = 2;
  train_config.checkpoint_path = path;
  Result<TrainResult> result =
      TrainModelResumable(model.get(), dataset, train_config, &rng);
  ASSERT_TRUE(result.ok())
      << "a failed snapshot write must not abort training: "
      << result.status().ToString();
  EXPECT_EQ(result->epochs_run, 4);
  EXPECT_EQ(ReadFileOrEmpty(path), "") << "every snapshot write was failed";
  failpoint::ClearAll();
}

// Crash mid-epoch in a child process, then resume in the parent: the
// snapshot on disk must be loadable (old-or-new-complete) and carry the
// cursor of the last completed snapshot interval.
TEST_F(AtomicCrashTest, CrashMidTrainingLeavesAResumableSnapshot) {
  const std::string snapshot_path =
      testing::TempDir() + "/crash_training.ckpt";
  std::remove(snapshot_path.c_str());
  const Dataset dataset = Tiny(23);
  ModelConfig config;
  config.hidden = 16;

  EXPECT_EXIT(
      {
        // Crash at the top of epoch 6 (hit 6 of trainer.epoch): snapshots
        // for epochs 1..4 (every 2) are on disk, the epoch-6 one is not.
        const Status armed = failpoint::Configure("trainer.epoch", "crash@6");
        if (!armed.ok()) _exit(7);
        Rng rng(29);
        ModelPtr model =
            std::move(CreateModel("ADPA", dataset, config, &rng)).value();
        TrainConfig train_config;
        train_config.max_epochs = 10;
        train_config.patience = 0;
        train_config.checkpoint_every = 2;
        train_config.checkpoint_path = snapshot_path;
        SnapshotContext context;
        context.model_name = "ADPA";
        context.model_config = config;
        (void)TrainModelResumable(model.get(), dataset, train_config, &rng,
                                  &context);
        _exit(0);
      },
      ::testing::ExitedWithCode(42), "");

  Result<Checkpoint> snapshot = TryLoadCheckpoint(snapshot_path);
  ASSERT_TRUE(snapshot.ok())
      << "snapshot on disk must never be torn: "
      << snapshot.status().ToString();
  ASSERT_TRUE(snapshot->train_state.has_value());
  EXPECT_EQ(snapshot->train_state->next_epoch, 4)
      << "the last completed snapshot covers epochs 0..3";

  // And the snapshot actually resumes.
  Rng rng(999);
  ModelPtr resumed = std::move(CreateModelWithPatterns(
                                   "ADPA", dataset, snapshot->model_config,
                                   snapshot->patterns, &rng))
                         .value();
  TrainConfig resume_config;
  resume_config.max_epochs = 10;
  resume_config.patience = 0;
  resume_config.resume_from = snapshot_path;
  Result<TrainResult> finished =
      TrainModelResumable(resumed.get(), dataset, resume_config, &rng);
  ASSERT_TRUE(finished.ok()) << finished.status().ToString();
  EXPECT_EQ(finished->resumed_from_epoch, 4);
  EXPECT_EQ(finished->epochs_run, 10);
  std::remove(snapshot_path.c_str());
}

}  // namespace
}  // namespace adpa
