#include "src/tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/tensor/simd.h"

namespace adpa {
namespace ag {

namespace {

std::shared_ptr<Node> MakeLeaf(Matrix value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return node;
}

std::shared_ptr<Node> MakeOp(const char* op, Matrix value,
                             std::vector<std::shared_ptr<Node>> parents,
                             std::function<void(const Matrix&)> backward) {
  auto node = std::make_shared<Node>();
  node->op = op;
  node->value = std::move(value);
  node->parents = std::move(parents);
  node->requires_grad = false;
  for (const auto& parent : node->parents) {
    ADPA_DCHECK(parent != nullptr)
        << "op node built from an undefined Variable";
    node->requires_grad = node->requires_grad || parent->requires_grad;
  }
  if (node->requires_grad) node->backward = std::move(backward);
  return node;
}

}  // namespace

void Node::AccumulateGrad(const Matrix& delta) {
  ADPA_DCHECK(delta.SameShape(value))
      << "gradient shape " << delta.rows() << "x" << delta.cols()
      << " does not match value shape " << value.rows() << "x" << value.cols();
  if (grad.empty()) grad = Matrix(value.rows(), value.cols());
  grad.AddInPlace(delta);
}

void Variable::ZeroGrad() {
  if (node_ != nullptr) node_->grad = Matrix();
}

Variable Parameter(Matrix value) {
  return Variable(MakeLeaf(std::move(value), /*requires_grad=*/true));
}

Variable Constant(Matrix value) {
  return Variable(MakeLeaf(std::move(value), /*requires_grad=*/false));
}

Variable Add(const Variable& a, const Variable& b) {
  ADPA_CHECK(a.value().SameShape(b.value()));
  auto pa = a.node();
  auto pb = b.node();
  return Variable(MakeOp("Add", adpa::Add(a.value(), b.value()), {pa, pb},
                         [pa, pb](const Matrix& g) {
                           if (pa->requires_grad) pa->AccumulateGrad(g);
                           if (pb->requires_grad) pb->AccumulateGrad(g);
                         }));
}

Variable Sub(const Variable& a, const Variable& b) {
  ADPA_CHECK(a.value().SameShape(b.value()));
  auto pa = a.node();
  auto pb = b.node();
  return Variable(MakeOp("Sub", adpa::Sub(a.value(), b.value()), {pa, pb},
                         [pa, pb](const Matrix& g) {
                           if (pa->requires_grad) pa->AccumulateGrad(g);
                           if (pb->requires_grad) {
                             Matrix neg = g;
                             neg.ScaleInPlace(-1.0f);
                             pb->AccumulateGrad(neg);
                           }
                         }));
}

Variable Mul(const Variable& a, const Variable& b) {
  ADPA_CHECK(a.value().SameShape(b.value()));
  auto pa = a.node();
  auto pb = b.node();
  return Variable(MakeOp("Mul", Hadamard(a.value(), b.value()), {pa, pb},
                         [pa, pb](const Matrix& g) {
                           if (pa->requires_grad) {
                             pa->AccumulateGrad(Hadamard(g, pb->value));
                           }
                           if (pb->requires_grad) {
                             pb->AccumulateGrad(Hadamard(g, pa->value));
                           }
                         }));
}

Variable Scale(const Variable& a, float factor) {
  auto pa = a.node();
  return Variable(MakeOp("Scale", adpa::Scale(a.value(), factor), {pa},
                         [pa, factor](const Matrix& g) {
                           if (pa->requires_grad) {
                             pa->AccumulateGrad(adpa::Scale(g, factor));
                           }
                         }));
}

Variable MatMul(const Variable& a, const Variable& b) {
  ADPA_CHECK_EQ(a.cols(), b.rows())
      << "MatMul shape mismatch: " << a.rows() << "x" << a.cols() << " @ "
      << b.rows() << "x" << b.cols();
  auto pa = a.node();
  auto pb = b.node();
  return Variable(MakeOp("MatMul",
      adpa::MatMul(a.value(), b.value()), {pa, pb}, [pa, pb](const Matrix& g) {
        if (pa->requires_grad) {
          pa->AccumulateGrad(MatMulTransposeB(g, pb->value));  // g @ bᵀ
        }
        if (pb->requires_grad) {
          pb->AccumulateGrad(MatMulTransposeA(pa->value, g));  // aᵀ @ g
        }
      }));
}

Variable MatMulTransposeA(const Variable& a, const Variable& b) {
  ADPA_CHECK_EQ(a.rows(), b.rows())
      << "MatMulTransposeA shape mismatch: " << a.rows() << "x" << a.cols()
      << "ᵀ @ " << b.rows() << "x" << b.cols();
  auto pa = a.node();
  auto pb = b.node();
  return Variable(MakeOp("MatMulTransposeA", adpa::MatMulTransposeA(a.value(), b.value()),
                         {pa, pb}, [pa, pb](const Matrix& g) {
                           if (pa->requires_grad) {
                             // d(aᵀb)/da: b @ gᵀ.
                             pa->AccumulateGrad(
                                 adpa::MatMulTransposeB(pb->value, g));
                           }
                           if (pb->requires_grad) {
                             // d(aᵀb)/db: a @ g.
                             pb->AccumulateGrad(adpa::MatMul(pa->value, g));
                           }
                         }));
}

Variable AddBias(const Variable& a, const Variable& bias) {
  ADPA_CHECK_EQ(bias.rows(), 1);
  ADPA_CHECK_EQ(bias.cols(), a.cols());
  auto pa = a.node();
  auto pbias = bias.node();
  return Variable(MakeOp("AddBias", AddRowBroadcast(a.value(), bias.value()), {pa, pbias},
                         [pa, pbias](const Matrix& g) {
                           if (pa->requires_grad) pa->AccumulateGrad(g);
                           if (pbias->requires_grad) {
                             // Row-major float accumulation, same order as
                             // the historical scalar loop bit for bit.
                             Matrix col_sums(1, g.cols());
                             const simd::KernelTable& kernels =
                                 simd::Kernels();
                             for (int64_t r = 0; r < g.rows(); ++r) {
                               kernels.add(col_sums.Row(0), g.Row(r),
                                           g.cols());
                             }
                             pbias->AccumulateGrad(col_sums);
                           }
                         }));
}

Variable SpMM(const SparseMatrix& a, const Variable& x) {
  ADPA_CHECK_EQ(a.cols(), x.rows())
      << "SpMM shape mismatch: " << a.rows() << "x" << a.cols() << " @ "
      << x.rows() << "x" << x.cols();
  auto px = x.node();
  // The sparse operator is captured by value; CSR vectors are shared via
  // copy-on-write-free vectors, and operators are long-lived in practice.
  return Variable(MakeOp("SpMM", a.Multiply(x.value()), {px},
                         [a, px](const Matrix& g) {
                           if (px->requires_grad) {
                             px->AccumulateGrad(a.MultiplyTransposed(g));
                           }
                         }));
}

Variable Relu(const Variable& a) {
  auto pa = a.node();
  Matrix out = a.value();
  out.ApplyFn([](float v) { return v > 0.0f ? v : 0.0f; });
  return Variable(MakeOp("Relu", std::move(out), {pa}, [pa](const Matrix& g) {
    if (!pa->requires_grad) return;
    Matrix masked = g;
    for (int64_t i = 0; i < masked.size(); ++i) {
      if (pa->value.data()[i] <= 0.0f) masked.data()[i] = 0.0f;
    }
    pa->AccumulateGrad(masked);
  }));
}

Variable Sigmoid(const Variable& a) {
  auto pa = a.node();
  Matrix out = a.value();
  out.ApplyFn([](float v) { return 1.0f / (1.0f + std::exp(-v)); });
  Matrix saved = out;  // σ(x), reused in the backward pass
  return Variable(
      MakeOp("Sigmoid", std::move(out), {pa}, [pa, saved](const Matrix& g) {
        if (!pa->requires_grad) return;
        Matrix dx = g;
        for (int64_t i = 0; i < dx.size(); ++i) {
          const float s = saved.data()[i];
          dx.data()[i] *= s * (1.0f - s);
        }
        pa->AccumulateGrad(dx);
      }));
}

Matrix DropoutMask(int64_t rows, int64_t cols, float p, Rng* rng) {
  ADPA_CHECK_GE(p, 0.0f);
  ADPA_CHECK_LT(p, 1.0f);
  ADPA_CHECK(rng != nullptr);
  const float keep_scale = 1.0f / (1.0f - p);
  Matrix mask(rows, cols);
  for (int64_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng->Bernoulli(p) ? 0.0f : keep_scale;
  }
  return mask;
}

Variable DropoutWithMask(const Variable& a, const Matrix& mask) {
  ADPA_CHECK(mask.SameShape(a.value()))
      << "dropout mask shape " << mask.rows() << "x" << mask.cols()
      << " does not match input " << a.rows() << "x" << a.cols();
  auto pa = a.node();
  return Variable(MakeOp("DropoutWithMask", Hadamard(a.value(), mask), {pa},
                         [pa, mask](const Matrix& g) {
                           if (pa->requires_grad) {
                             pa->AccumulateGrad(Hadamard(g, mask));
                           }
                         }));
}

Variable Dropout(const Variable& a, float p, bool training, Rng* rng) {
  ADPA_CHECK_GE(p, 0.0f);
  ADPA_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return a;
  ADPA_CHECK(rng != nullptr);
  return DropoutWithMask(a, DropoutMask(a.rows(), a.cols(), p, rng));
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  ADPA_CHECK(!parts.empty());
  std::vector<Matrix> values;
  std::vector<std::shared_ptr<Node>> parents;
  values.reserve(parts.size());
  parents.reserve(parts.size());
  for (const Variable& part : parts) {
    values.push_back(part.value());
    parents.push_back(part.node());
  }
  std::vector<int64_t> offsets(parts.size() + 1, 0);
  for (size_t i = 0; i < parts.size(); ++i) {
    offsets[i + 1] = offsets[i] + parts[i].cols();
  }
  auto captured_parents = parents;
  return Variable(MakeOp("ConcatCols",
      adpa::ConcatCols(values), parents,
      [captured_parents, offsets](const Matrix& g) {
        for (size_t i = 0; i < captured_parents.size(); ++i) {
          const auto& parent = captured_parents[i];
          if (!parent->requires_grad) continue;
          Matrix slice(g.rows(), offsets[i + 1] - offsets[i]);
          for (int64_t r = 0; r < g.rows(); ++r) {
            std::copy(g.Row(r) + offsets[i], g.Row(r) + offsets[i + 1],
                      slice.Row(r));
          }
          parent->AccumulateGrad(slice);
        }
      }));
}

Variable SliceCols(const Variable& a, int64_t begin, int64_t end) {
  ADPA_CHECK_GE(begin, 0);
  ADPA_CHECK_LE(begin, end);
  ADPA_CHECK_LE(end, a.cols());
  auto pa = a.node();
  // Forward shares adpa::SliceCols with the no-tape serving path (bitwise
  // parity between training-eval and serving is asserted in serve_test).
  return Variable(
      MakeOp("SliceCols", adpa::SliceCols(a.value(), begin, end), {pa},
             [pa, begin, end](const Matrix& g) {
        if (!pa->requires_grad) return;
        Matrix expanded(pa->value.rows(), pa->value.cols());
        for (int64_t r = 0; r < g.rows(); ++r) {
          std::copy(g.Row(r), g.Row(r) + (end - begin),
                    expanded.Row(r) + begin);
        }
        pa->AccumulateGrad(expanded);
      }));
}

Variable ScaleRows(const Variable& a, const Variable& scales) {
  ADPA_CHECK_EQ(scales.cols(), 1);
  ADPA_CHECK_EQ(scales.rows(), a.rows());
  auto pa = a.node();
  auto ps = scales.node();
  // Forward shares adpa::ScaleRows with the no-tape serving path.
  return Variable(MakeOp("ScaleRows", adpa::ScaleRows(a.value(), scales.value()),
                         {pa, ps}, [pa, ps](const Matrix& g) {
    if (pa->requires_grad) {
      Matrix da = g;
      const simd::KernelTable& kernels = simd::Kernels();
      for (int64_t r = 0; r < da.rows(); ++r) {
        kernels.scale(da.Row(r), ps->value.At(r, 0), da.cols());
      }
      pa->AccumulateGrad(da);
    }
    if (ps->requires_grad) {
      Matrix ds(g.rows(), 1);
      for (int64_t r = 0; r < g.rows(); ++r) {
        double acc = 0.0;
        const float* g_row = g.Row(r);
        const float* a_row = pa->value.Row(r);
        for (int64_t c = 0; c < g.cols(); ++c) acc += g_row[c] * a_row[c];
        ds.At(r, 0) = static_cast<float>(acc);
      }
      ps->AccumulateGrad(ds);
    }
  }));
}

Variable GatherRows(const Variable& a, const std::vector<int64_t>& rows) {
  auto pa = a.node();
  Matrix out;
  GatherRowsInto(a.value(), rows, &out);
  return Variable(MakeOp("GatherRows", std::move(out), {pa},
                         [pa, rows](const Matrix& g) {
    if (!pa->requires_grad) return;
    Matrix da(pa->value.rows(), pa->value.cols());
    const simd::KernelTable& kernels = simd::Kernels();
    for (size_t r = 0; r < rows.size(); ++r) {
      kernels.add(da.Row(rows[r]), g.Row(static_cast<int64_t>(r)), da.cols());
    }
    pa->AccumulateGrad(da);
  }));
}

Variable ScaleScalar(const Variable& a, const Variable& s) {
  ADPA_CHECK_EQ(s.rows(), 1);
  ADPA_CHECK_EQ(s.cols(), 1);
  auto pa = a.node();
  auto ps = s.node();
  return Variable(MakeOp("ScaleScalar", adpa::Scale(a.value(), s.value().At(0, 0)), {pa, ps},
                         [pa, ps](const Matrix& g) {
                           if (pa->requires_grad) {
                             pa->AccumulateGrad(
                                 adpa::Scale(g, ps->value.At(0, 0)));
                           }
                           if (ps->requires_grad) {
                             Matrix ds(1, 1);
                             double acc = 0.0;
                             for (int64_t i = 0; i < g.size(); ++i) {
                               acc += static_cast<double>(g.data()[i]) *
                                      pa->value.data()[i];
                             }
                             ds.At(0, 0) = static_cast<float>(acc);
                             ps->AccumulateGrad(ds);
                           }
                         }));
}

Variable SoftmaxRows(const Variable& a) {
  auto pa = a.node();
  Matrix out = adpa::SoftmaxRows(a.value());
  Matrix saved = out;
  return Variable(MakeOp("SoftmaxRows", std::move(out), {pa}, [pa, saved](const Matrix& g) {
    if (!pa->requires_grad) return;
    // dL/dx_j = s_j * (g_j - Σ_k g_k s_k), per row.
    Matrix dx(g.rows(), g.cols());
    for (int64_t r = 0; r < g.rows(); ++r) {
      const float* s = saved.Row(r);
      const float* g_row = g.Row(r);
      double dot = 0.0;
      for (int64_t c = 0; c < g.cols(); ++c) dot += g_row[c] * s[c];
      float* dx_row = dx.Row(r);
      for (int64_t c = 0; c < g.cols(); ++c) {
        dx_row[c] = s[c] * (g_row[c] - static_cast<float>(dot));
      }
    }
    pa->AccumulateGrad(dx);
  }));
}

Variable SumAll(const Variable& a) {
  auto pa = a.node();
  Matrix out(1, 1);
  out.At(0, 0) = a.value().SumAll();
  return Variable(MakeOp("SumAll", std::move(out), {pa}, [pa](const Matrix& g) {
    if (!pa->requires_grad) return;
    Matrix ones(pa->value.rows(), pa->value.cols(), g.At(0, 0));
    pa->AccumulateGrad(ones);
  }));
}

Variable MaskedCrossEntropy(const Variable& logits,
                            const std::vector<int64_t>& labels,
                            const std::vector<int64_t>& mask_indices) {
  ADPA_CHECK(!mask_indices.empty());
  ADPA_CHECK_EQ(static_cast<int64_t>(labels.size()), logits.rows());
  auto plogits = logits.node();
  const Matrix softmax = adpa::SoftmaxRows(logits.value());
  double loss = 0.0;
  for (int64_t i : mask_indices) {
    ADPA_CHECK_GE(i, 0);
    ADPA_CHECK_LT(i, logits.rows());
    const int64_t y = labels[i];
    ADPA_CHECK_GE(y, 0);
    ADPA_CHECK_LT(y, logits.cols());
    loss -= std::log(std::max(softmax.At(i, y), 1e-30f));
  }
  loss /= static_cast<double>(mask_indices.size());
  Matrix out(1, 1);
  out.At(0, 0) = static_cast<float>(loss);
  const float inv_count = 1.0f / static_cast<float>(mask_indices.size());
  return Variable(MakeOp("MaskedCrossEntropy",
      std::move(out), {plogits},
      [plogits, softmax, labels, mask_indices, inv_count](const Matrix& g) {
        if (!plogits->requires_grad) return;
        const float scale = g.At(0, 0) * inv_count;
        Matrix dx(plogits->value.rows(), plogits->value.cols());
        for (int64_t i : mask_indices) {
          const float* s = softmax.Row(i);
          float* dx_row = dx.Row(i);
          for (int64_t c = 0; c < dx.cols(); ++c) dx_row[c] = scale * s[c];
          dx_row[labels[i]] -= scale;
        }
        plogits->AccumulateGrad(dx);
      }));
}

void Backward(const Variable& root) {
  ADPA_CHECK(root.defined());
  ADPA_CHECK(root.requires_grad())
      << "Backward called on a graph with no trainable parameters";
  // Iterative post-order DFS for the topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.node().get(), 0);
  visited.insert(root.node().get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child++].get();
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Seed d(root)/d(root) = 1.
  Matrix seed(root.value().rows(), root.value().cols(), 1.0f);
  root.node()->AccumulateGrad(seed);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward && !node->grad.empty()) node->backward(node->grad);
  }
}

}  // namespace ag
}  // namespace adpa
