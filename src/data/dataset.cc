#include "src/data/dataset.h"

#include <unordered_set>

namespace adpa {

Status Dataset::Validate() const {
  if (features.rows() != graph.num_nodes()) {
    return Status::InvalidArgument("feature rows != num_nodes");
  }
  if (static_cast<int64_t>(labels.size()) != graph.num_nodes()) {
    return Status::InvalidArgument("labels size != num_nodes");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("num_classes must be >= 2");
  }
  for (int64_t label : labels) {
    if (label < 0 || label >= num_classes) {
      return Status::OutOfRange("label out of range");
    }
  }
  std::unordered_set<int64_t> seen;
  for (const auto* split : {&train_idx, &val_idx, &test_idx}) {
    for (int64_t i : *split) {
      if (i < 0 || i >= graph.num_nodes()) {
        return Status::OutOfRange("split index out of range");
      }
      if (!seen.insert(i).second) {
        return Status::InvalidArgument("splits overlap at node " +
                                       std::to_string(i));
      }
    }
  }
  if (train_idx.empty()) {
    return Status::FailedPrecondition("train split is empty");
  }
  if (val_idx.empty()) {
    return Status::FailedPrecondition("validation split is empty");
  }
  if (test_idx.empty()) {
    return Status::FailedPrecondition("test split is empty");
  }
  return Status::OK();
}

Dataset Dataset::WithUndirectedGraph() const {
  Dataset out = *this;
  out.graph = graph.ToUndirected();
  return out;
}

}  // namespace adpa
