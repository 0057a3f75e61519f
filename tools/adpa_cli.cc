// adpa_cli — command-line front end for the library's data-engineering
// workflow on user-supplied graphs (paper Fig. 1 as a tool):
//
//   adpa_cli generate --name=Chameleon --seed=0 --scale=1.0 --out=g.txt
//       Materialize a registry benchmark into a portable dataset file.
//
//   adpa_cli analyze --in=g.txt
//       Print graph statistics, all homophily measures, and the AMUD
//       guidance (directed vs undirected modeling).
//
//   adpa_cli train --in=g.txt --model=ADPA [--undirect] [--epochs=200]
//                  [--hidden=64] [--steps=2] [--order=2] [--lr=0.01]
//                  [--save_checkpoint=m.ckpt]
//       Train any registered model on the dataset and report accuracy;
//       optionally persist the trained model (src/io/checkpoint.h).
//
//   adpa_cli train --in=g.txt --load_checkpoint=m.ckpt
//       Skip training: restore the model from a checkpoint (hyperparameters
//       come from the checkpoint, not the flags) and report test accuracy.
//
//   adpa_cli train --in=g.txt ... --checkpoint_every=25 --checkpoint_path=s.ckpt
//       Crash-safe training: every N epochs, atomically snapshot the full
//       training state (weights + Adam moments + RNG/epoch cursor).
//
//   adpa_cli train --in=g.txt --resume_from=s.ckpt
//       Continue an interrupted run from its latest snapshot. Model shape,
//       patterns, and training hyperparameters come from the snapshot; at
//       the same thread count the final weights are bitwise identical to an
//       uninterrupted run.

#include <cstdio>
#include <string>

#include "src/amud/amud.h"
#include "src/core/flags.h"
#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/core/strings.h"
#include "src/data/benchmarks.h"
#include "src/data/io.h"
#include "src/graph/algorithms.h"
#include "src/io/checkpoint.h"
#include "src/metrics/homophily.h"
#include "src/models/factory.h"
#include "src/tensor/simd.h"
#include "src/train/trainer.h"

namespace adpa {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: adpa_cli <generate|analyze|train> [--flags]\n"
               "  generate --name=<benchmark> [--seed=N --scale=F] --out=F\n"
               "  analyze  --in=<file>\n"
               "  train    --in=<file> --model=<name> [--undirect]\n"
               "           [--epochs=N --hidden=N --steps=N --order=N "
               "--lr=F --seed=N --check_finite]\n"
               "           [--save_checkpoint=F | --load_checkpoint=F]\n"
               "           [--checkpoint_every=N --checkpoint_path=F]\n"
               "           [--resume_from=F]\n"
               "  any command also accepts --threads=N (0 = auto); results\n"
               "  are independent of the thread count\n"
               "  --simd_level=<portable|avx2|avx512> pins the kernel\n"
               "  dispatch level (default: fastest the CPU supports)\n");
  return 2;
}

int Generate(const Flags& flags) {
  const std::string name = flags.GetString("name", "");
  const std::string out = flags.GetString("out", "");
  if (name.empty() || out.empty()) return Usage();
  Result<Dataset> dataset = BuildBenchmarkByName(
      name, static_cast<uint64_t>(flags.GetInt("seed", 0)),
      flags.GetDouble("scale", 1.0));
  if (!dataset.ok()) return Fail(dataset.status());
  const Status saved = SaveDataset(*dataset, out);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s: %lld nodes, %lld edges, %lld classes\n",
              out.c_str(), static_cast<long long>(dataset->num_nodes()),
              static_cast<long long>(dataset->num_edges()),
              static_cast<long long>(dataset->num_classes));
  return 0;
}

int Analyze(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  if (in.empty()) return Usage();
  Result<Dataset> dataset = LoadDataset(in);
  if (!dataset.ok()) return Fail(dataset.status());

  const DegreeStats degrees = ComputeDegreeStats(dataset->graph);
  const ComponentLabeling wcc = WeaklyConnectedComponents(dataset->graph);
  const ComponentLabeling scc = StronglyConnectedComponents(dataset->graph);
  std::printf("dataset %s: %lld nodes, %lld edges, %lld classes, %lld "
              "features\n",
              dataset->name.c_str(),
              static_cast<long long>(dataset->num_nodes()),
              static_cast<long long>(dataset->num_edges()),
              static_cast<long long>(dataset->num_classes),
              static_cast<long long>(dataset->feature_dim()));
  std::printf("degrees: mean out %.2f (max %.0f), mean in %.2f (max %.0f), "
              "%lld sources, %lld sinks\n",
              degrees.mean_out, degrees.max_out, degrees.mean_in,
              degrees.max_in, static_cast<long long>(degrees.sources),
              static_cast<long long>(degrees.sinks));
  std::printf("components: %lld weak, %lld strong; reciprocity %.3f\n",
              static_cast<long long>(wcc.num_components),
              static_cast<long long>(scc.num_components),
              dataset->graph.ReciprocityRatio());

  const HomophilyReport homophily = ComputeHomophilyReport(
      dataset->graph, dataset->labels, dataset->num_classes);
  std::printf(
      "homophily: node %.3f edge %.3f class %.3f adjusted %.3f LI %.3f\n",
      homophily.node, homophily.edge, homophily.cls, homophily.adjusted,
      homophily.li);

  Result<AmudReport> amud =
      ComputeAmud(dataset->graph, dataset->labels, dataset->num_classes);
  if (!amud.ok()) return Fail(amud.status());
  std::printf("%s", amud->ToString().c_str());
  return 0;
}

int Train(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string model_name = flags.GetString("model", "ADPA");
  if (in.empty()) return Usage();
  Result<Dataset> dataset = LoadDataset(in);
  if (!dataset.ok()) return Fail(dataset.status());
  Dataset input = flags.GetBool("undirect", false)
                      ? dataset->WithUndirectedGraph()
                      : std::move(*dataset);

  const std::string load_path = flags.GetString("load_checkpoint", "");
  if (!load_path.empty()) {
    Result<Checkpoint> checkpoint = TryLoadCheckpoint(load_path);
    if (!checkpoint.ok()) return Fail(checkpoint.status());
    const Status same_data = CheckCheckpointDataset(*checkpoint, input);
    if (!same_data.ok()) return Fail(same_data);
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
    // Propagate with the checkpoint's recorded DP pattern set: the content
    // hash above does not cover the train split, and a correlation-selected
    // subset re-derived from a different split would silently bind the
    // restored weights to the wrong patterns.
    Result<ModelPtr> model = CreateModelWithPatterns(
        checkpoint->model_name, input, checkpoint->model_config,
        checkpoint->patterns, &rng);
    if (!model.ok()) return Fail(model.status());
    const Status loaded = LoadCheckpointIntoModel(*checkpoint, model->get());
    if (!loaded.ok()) return Fail(loaded);
    const Matrix logits = (*model)->Forward(/*training=*/false, &rng).value();
    std::printf("%s restored from %s: train %.1f%%, val %.1f%%, test %.1f%%\n",
                checkpoint->model_name.c_str(), load_path.c_str(),
                Accuracy(logits, input.labels, input.train_idx) * 100.0,
                Accuracy(logits, input.labels, input.val_idx) * 100.0,
                Accuracy(logits, input.labels, input.test_idx) * 100.0);
    return 0;
  }

  const std::string resume_path = flags.GetString("resume_from", "");
  ModelConfig config;
  TrainConfig train_config;
  std::string resolved_model_name = model_name;
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
  Result<ModelPtr> model = Status::Internal("model not constructed");
  if (!resume_path.empty()) {
    // Resume: everything that shaped the original run — model name, config,
    // pattern set, training hyperparameters — comes from the snapshot, not
    // the flags, so the resumed trajectory is the original one.
    Result<Checkpoint> snapshot = TryLoadCheckpoint(resume_path);
    if (!snapshot.ok()) return Fail(snapshot.status());
    if (!snapshot->train_state.has_value()) {
      return Fail(Status::InvalidArgument(
          resume_path + " is a final checkpoint without training state; "
          "only periodic snapshots (--checkpoint_every) can be resumed"));
    }
    const Status same_data = CheckCheckpointDataset(*snapshot, input);
    if (!same_data.ok()) return Fail(same_data);
    resolved_model_name = snapshot->model_name;
    config = snapshot->model_config;
    model = CreateModelWithPatterns(resolved_model_name, input, config,
                                    snapshot->patterns, &rng);
    train_config = snapshot->train_config;
    train_config.check_finite = flags.GetBool("check_finite", false);
    train_config.resume_from = resume_path;
    // Keep snapshotting into the same file by default: a run that survived
    // one interruption should stay crash-safe without re-plumbing flags.
    train_config.checkpoint_every =
        static_cast<int>(flags.GetInt("checkpoint_every", 0));
    train_config.checkpoint_path =
        flags.GetString("checkpoint_path", resume_path);
  } else {
    config.hidden = flags.GetInt("hidden", 64);
    config.propagation_steps = static_cast<int>(flags.GetInt("steps", 2));
    config.pattern_order = static_cast<int>(flags.GetInt("order", 2));
    config.dropout = static_cast<float>(flags.GetDouble("dropout", 0.5));
    model = CreateModel(resolved_model_name, input, config, &rng);
    train_config.max_epochs = static_cast<int>(flags.GetInt("epochs", 200));
    train_config.patience = static_cast<int>(flags.GetInt("patience", 30));
    train_config.learning_rate =
        static_cast<float>(flags.GetDouble("lr", 0.01));
    train_config.check_finite = flags.GetBool("check_finite", false);
    train_config.checkpoint_every =
        static_cast<int>(flags.GetInt("checkpoint_every", 0));
    train_config.checkpoint_path = flags.GetString("checkpoint_path", "");
  }
  if (!model.ok()) return Fail(model.status());
  if (train_config.checkpoint_every > 0 &&
      train_config.checkpoint_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--checkpoint_every requires --checkpoint_path"));
  }

  SnapshotContext context;
  context.model_name = resolved_model_name;
  context.model_config = config;
  const Result<TrainResult> trained =
      TrainModelResumable(model->get(), input, train_config, &rng, &context);
  if (!trained.ok()) return Fail(trained.status());
  const TrainResult& result = *trained;
  if (result.resumed_from_epoch >= 0) {
    std::printf("resumed %s from %s at epoch %d\n",
                resolved_model_name.c_str(), resume_path.c_str(),
                result.resumed_from_epoch);
  }
  std::printf("%s on %s: val %.1f%% (epoch %d), test %.1f%% after %d "
              "epochs\n",
              resolved_model_name.c_str(), input.name.c_str(),
              result.best_val_accuracy * 100.0, result.best_epoch,
              result.test_accuracy * 100.0, result.epochs_run);

  const std::string save_path = flags.GetString("save_checkpoint", "");
  if (!save_path.empty()) {
    const Checkpoint checkpoint = MakeCheckpoint(
        *model->get(), resolved_model_name, input, config, train_config);
    const Status saved = SaveCheckpoint(checkpoint, save_path);
    if (!saved.ok()) return Fail(saved);
    std::printf("checkpoint written to %s (%lld tensors)\n",
                save_path.c_str(),
                static_cast<long long>(checkpoint.tensors.size()));
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;
  if (!flags.Parse(argc - 1, argv + 1)) return Usage();
  // 0 = auto (ADPA_NUM_THREADS env var, then hardware concurrency).
  if (flags.Has("threads")) {
    SetNumThreads(static_cast<int>(flags.GetInt("threads", 0)));
  }
  // Resolve the dispatch level eagerly so a bad ADPA_SIMD_LEVEL aborts at
  // startup instead of on the first kernel call (which some commands never
  // reach).
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
  if (command == "generate") return Generate(flags);
  if (command == "analyze") return Analyze(flags);
  if (command == "train") return Train(flags);
  return Usage();
}

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) { return adpa::Main(argc, argv); }
