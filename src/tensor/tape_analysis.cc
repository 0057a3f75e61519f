#include "src/tensor/tape_analysis.h"

#include <cstring>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace adpa {
namespace ag {

namespace {

std::string ShapeOf(const Matrix& m) {
  std::ostringstream out;
  out << m.rows() << "x" << m.cols();
  return out.str();
}

std::string Describe(const Node* node) {
  std::ostringstream out;
  out << node->op << " node (" << ShapeOf(node->value) << ")";
  return out.str();
}

bool IsOneOf(const char* op, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (std::strcmp(op, name) == 0) return true;
  }
  return false;
}

/// Per-op structural rules. Shapes that depend on captured state (the SpMM
/// operator, SliceCols bounds) are checked as far as the parent list
/// allows; unknown ops get only the generic arity > 0 rule so the analyzer
/// never hard-fails on an op added after it was written.
void CheckOpShapes(const Node* node, std::vector<std::string>* violations) {
  const auto& parents = node->parents;
  const Matrix& value = node->value;
  auto complain = [&](const std::string& what) {
    violations->push_back(Describe(node) + ": " + what);
  };
  auto require_arity = [&](size_t arity) {
    if (parents.size() != arity) {
      std::ostringstream out;
      out << "expected " << arity << " parent(s), has " << parents.size();
      complain(out.str());
      return false;
    }
    return true;
  };

  const char* op = node->op;
  if (IsOneOf(op, {"Add", "Sub", "Mul"})) {
    if (require_arity(2)) {
      for (const auto& parent : parents) {
        if (!parent->value.SameShape(value)) {
          complain("operand shape " + ShapeOf(parent->value) +
                   " differs from output");
        }
      }
    }
  } else if (IsOneOf(op, {"Scale", "Relu", "Sigmoid", "DropoutWithMask",
                          "Dropout", "SoftmaxRows"})) {
    if (require_arity(1) && !parents[0]->value.SameShape(value)) {
      complain("input shape " + ShapeOf(parents[0]->value) +
               " differs from output");
    }
  } else if (IsOneOf(op, {"MatMul"})) {
    if (require_arity(2)) {
      const Matrix& a = parents[0]->value;
      const Matrix& b = parents[1]->value;
      if (a.cols() != b.rows() || value.rows() != a.rows() ||
          value.cols() != b.cols()) {
        complain("inconsistent with operands " + ShapeOf(a) + " @ " +
                 ShapeOf(b));
      }
    }
  } else if (IsOneOf(op, {"MatMulTransposeA"})) {
    if (require_arity(2)) {
      const Matrix& a = parents[0]->value;
      const Matrix& b = parents[1]->value;
      if (a.rows() != b.rows() || value.rows() != a.cols() ||
          value.cols() != b.cols()) {
        complain("inconsistent with operands " + ShapeOf(a) + "ᵀ @ " +
                 ShapeOf(b));
      }
    }
  } else if (IsOneOf(op, {"AddBias"})) {
    if (require_arity(2)) {
      if (!parents[0]->value.SameShape(value)) {
        complain("input shape " + ShapeOf(parents[0]->value) +
                 " differs from output");
      }
      if (parents[1]->value.rows() != 1 ||
          parents[1]->value.cols() != value.cols()) {
        complain("bias shape " + ShapeOf(parents[1]->value) +
                 " is not 1x" + std::to_string(value.cols()));
      }
    }
  } else if (IsOneOf(op, {"SpMM"})) {
    // The sparse operator lives in the backward closure, so only the
    // feature dimension is visible for checking.
    if (require_arity(1) && parents[0]->value.cols() != value.cols()) {
      complain("feature dim changed across SpMM: input " +
               ShapeOf(parents[0]->value));
    }
  } else if (IsOneOf(op, {"ConcatCols"})) {
    int64_t total_cols = 0;
    for (const auto& parent : parents) {
      total_cols += parent->value.cols();
      if (parent->value.rows() != value.rows()) {
        complain("part with " + std::to_string(parent->value.rows()) +
                 " rows in a " + std::to_string(value.rows()) +
                 "-row concat");
      }
    }
    if (parents.empty() || total_cols != value.cols()) {
      complain("part columns sum to " + std::to_string(total_cols) +
               ", output has " + std::to_string(value.cols()));
    }
  } else if (IsOneOf(op, {"SliceCols"})) {
    if (require_arity(1)) {
      if (parents[0]->value.rows() != value.rows() ||
          parents[0]->value.cols() < value.cols()) {
        complain("slice wider than its input " + ShapeOf(parents[0]->value));
      }
    }
  } else if (IsOneOf(op, {"GatherRows"})) {
    // The row indices live in the backward closure; the columns must carry.
    if (require_arity(1) && parents[0]->value.cols() != value.cols()) {
      complain("gathered " + std::to_string(value.cols()) +
               " columns from input " + ShapeOf(parents[0]->value));
    }
  } else if (IsOneOf(op, {"ScaleRows"})) {
    if (require_arity(2)) {
      if (!parents[0]->value.SameShape(value)) {
        complain("input shape " + ShapeOf(parents[0]->value) +
                 " differs from output");
      }
      if (parents[1]->value.rows() != value.rows() ||
          parents[1]->value.cols() != 1) {
        complain("scales shape " + ShapeOf(parents[1]->value) +
                 " is not " + std::to_string(value.rows()) + "x1");
      }
    }
  } else if (IsOneOf(op, {"ScaleScalar"})) {
    if (require_arity(2)) {
      if (!parents[0]->value.SameShape(value)) {
        complain("input shape " + ShapeOf(parents[0]->value) +
                 " differs from output");
      }
      if (parents[1]->value.rows() != 1 || parents[1]->value.cols() != 1) {
        complain("scalar operand has shape " + ShapeOf(parents[1]->value));
      }
    }
  } else if (IsOneOf(op, {"SumAll", "MaskedCrossEntropy"})) {
    if (require_arity(1) && (value.rows() != 1 || value.cols() != 1)) {
      complain("reduction output is not 1x1");
    }
  } else if (!IsOneOf(op, {"leaf"})) {
    // Unknown op tag: only require it to have parents at all.
    if (parents.empty()) {
      complain("op node with no parents (and not tagged as a leaf)");
    }
  }
}

void CheckNodeInvariants(const Node* node,
                         std::vector<std::string>* violations) {
  for (const auto& parent : node->parents) {
    if (parent == nullptr) {
      violations->push_back(Describe(node) + ": null parent pointer");
      return;  // shape rules below would dereference the null parent
    }
  }
  const bool is_leaf = node->parents.empty();
  if (!is_leaf && node->requires_grad && !node->backward) {
    violations->push_back(Describe(node) +
                          ": requires_grad set but backward is empty");
  }
  if (!node->requires_grad && node->backward) {
    violations->push_back(Describe(node) +
                          ": backward closure on a non-grad node");
  }
  if (!is_leaf) {
    bool any_parent_grad = false;
    for (const auto& parent : node->parents) {
      any_parent_grad = any_parent_grad || parent->requires_grad;
    }
    if (node->requires_grad != any_parent_grad) {
      violations->push_back(Describe(node) +
                            ": requires_grad disagrees with parents");
    }
  }
  if (!node->grad.empty() && !node->grad.SameShape(node->value)) {
    violations->push_back(Describe(node) + ": accumulated gradient is " +
                          ShapeOf(node->grad) + ", value is " +
                          ShapeOf(node->value));
  }
  CheckOpShapes(node, violations);
}

}  // namespace

std::string TapeReport::Summary() const {
  std::ostringstream out;
  out << "tape: " << num_nodes << " node(s), " << num_edges << " edge(s), "
      << num_leaves << " leaf/leaves, " << violations.size()
      << " violation(s), " << dead_params.size() << " dead parameter(s)";
  for (const std::string& violation : violations) {
    out << "\n  violation: " << violation;
  }
  for (int64_t index : dead_params) {
    out << "\n  dead parameter: index " << index
        << " is unreachable from the root";
  }
  return out.str();
}

TapeReport AnalyzeTape(const Variable& root,
                       const std::vector<Variable>& params) {
  TapeReport report;
  ADPA_CHECK(root.defined()) << "AnalyzeTape on an undefined Variable";

  // Iterative DFS with tri-color marking: kOnStack detects parent cycles
  // (impossible via the public op constructors, but a hand-wired Node or a
  // future in-place op could introduce one, and a cycle would make
  // Backward's traversal loop forever).
  enum class Color { kOnStack, kDone };
  std::unordered_map<const Node*, Color> colors;
  std::vector<std::pair<Node*, size_t>> stack;
  Node* root_node = root.node().get();
  stack.emplace_back(root_node, 0);
  colors[root_node] = Color::kOnStack;
  while (!stack.empty()) {
    auto& [node, next_parent] = stack.back();
    if (next_parent == 0) {
      ++report.num_nodes;
      if (node->parents.empty()) ++report.num_leaves;
      CheckNodeInvariants(node, &report.violations);
    }
    if (next_parent < node->parents.size()) {
      Node* parent = node->parents[next_parent++].get();
      if (parent == nullptr) continue;  // reported by CheckNodeInvariants
      ++report.num_edges;
      auto it = colors.find(parent);
      if (it == colors.end()) {
        colors[parent] = Color::kOnStack;
        stack.emplace_back(parent, 0);
      } else if (it->second == Color::kOnStack) {
        report.violations.push_back(Describe(parent) +
                                    ": parent cycle detected");
      }
    } else {
      colors[node] = Color::kDone;
      stack.pop_back();
    }
  }

  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i].defined() ||
        colors.find(params[i].node().get()) == colors.end()) {
      report.dead_params.push_back(static_cast<int64_t>(i));
    }
  }
  return report;
}

}  // namespace ag
}  // namespace adpa
