#include "src/models/factory.h"

#include <memory>

#include "src/models/adpa.h"
#include "src/models/directed.h"
#include "src/models/extended.h"
#include "src/models/undirected.h"

namespace adpa {

Result<ModelPtr> CreateModel(const std::string& name, const Dataset& dataset,
                             const ModelConfig& config, Rng* rng) {
  if (name == "MLP") return ModelPtr(new MlpModel(dataset, config, rng));
  if (name == "GCN") return ModelPtr(new GcnModel(dataset, config, rng));
  if (name == "SGC") return ModelPtr(new SgcModel(dataset, config, rng));
  if (name == "LINKX") return ModelPtr(new LinkxModel(dataset, config, rng));
  if (name == "GloGNN") return ModelPtr(new GloGnnModel(dataset, config, rng));
  if (name == "AERO-GNN") {
    return ModelPtr(new AeroGnnModel(dataset, config, rng));
  }
  if (name == "GPRGNN") return ModelPtr(new GprGnnModel(dataset, config, rng));
  if (name == "BerNet") return ModelPtr(new BernNetModel(dataset, config, rng));
  if (name == "JacobiConv") {
    return ModelPtr(new JacobiConvModel(dataset, config, rng));
  }
  if (name == "DGCN") return ModelPtr(new DgcnModel(dataset, config, rng));
  if (name == "DiGCN") return ModelPtr(new DiGcnModel(dataset, config, rng));
  if (name == "MagNet") return ModelPtr(new MagNetModel(dataset, config, rng));
  if (name == "NSTE") return ModelPtr(new NsteModel(dataset, config, rng));
  if (name == "DIMPA") return ModelPtr(new DimpaModel(dataset, config, rng));
  if (name == "DirGNN") return ModelPtr(new DirGnnModel(dataset, config, rng));
  if (name == "A2DUG") return ModelPtr(new A2dugModel(dataset, config, rng));
  if (name == "ADPA") return ModelPtr(new AdpaModel(dataset, config, rng));
  if (name == "H2GCN") return ModelPtr(new H2GcnModel(dataset, config, rng));
  if (name == "APPNP") return ModelPtr(new AppnpModel(dataset, config, rng));
  if (name == "GraphSAGE") {
    return ModelPtr(new GraphSageModel(dataset, config, rng));
  }
  return Status::NotFound("unknown model: " + name);
}

Result<ModelPtr> CreateModelWithPatterns(const std::string& name,
                                         const Dataset& dataset,
                                         const ModelConfig& config,
                                         std::vector<DirectedPattern> patterns,
                                         Rng* rng) {
  if (name == "ADPA" && !patterns.empty()) {
    return ModelPtr(new AdpaModel(dataset, config, patterns, rng));
  }
  return CreateModel(name, dataset, config, rng);
}

const std::vector<std::string>& UndirectedModelNames() {
  static const std::vector<std::string>& names = *new std::vector<std::string>{
      "GCN",    "SGC",    "LINKX",  "BerNet",
      "JacobiConv", "GPRGNN", "GloGNN", "AERO-GNN"};
  return names;
}

const std::vector<std::string>& DirectedModelNames() {
  static const std::vector<std::string>& names = *new std::vector<std::string>{
      "DGCN", "DiGCN", "MagNet", "NSTE", "DIMPA", "DirGNN", "A2DUG"};
  return names;
}

const std::vector<std::string>& AllModelNames() {
  static const std::vector<std::string>& names = *new std::vector<std::string>(
      [] {
        std::vector<std::string> all = UndirectedModelNames();
        for (const std::string& name : DirectedModelNames()) {
          all.push_back(name);
        }
        all.push_back("ADPA");
        return all;
      }());
  return names;
}

bool IsDirectedModel(const std::string& name) {
  for (const std::string& directed : DirectedModelNames()) {
    if (name == directed) return true;
  }
  return name == "ADPA";
}

}  // namespace adpa
