#include "nn/mlp.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/simd.hpp"

namespace deepcat::nn {

Mlp::Mlp(const std::vector<std::size_t>& dims, common::Rng& rng,
         OutputActivation out_act) {
  if (dims.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output dims");
  }
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = i + 2 == dims.size();
    layers_.push_back(std::make_unique<Linear>(
        dims[i], dims[i + 1], rng,
        last ? Linear::Init::kSmallUniform : Linear::Init::kKaiming));
    if (!last) {
      layers_.push_back(std::make_unique<ReLU>());
    }
  }
  switch (out_act) {
    case OutputActivation::kNone: break;
    case OutputActivation::kTanh: layers_.push_back(std::make_unique<Tanh>()); break;
    case OutputActivation::kSigmoid:
      layers_.push_back(std::make_unique<Sigmoid>());
      break;
  }
}

Mlp::Mlp(const Mlp& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  Mlp tmp(other);
  layers_ = std::move(tmp.layers_);
  return *this;
}

const Matrix& Mlp::forward(const Matrix& x) {
  const Matrix* y = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    // Fuse Linear -> activation pairs into one kernel pass: the activation
    // runs in the GEMM epilogue and the pre-activation matrix is never
    // materialized. The activation layer only needs the output for
    // backward, which it reads from the Linear's workspace.
    auto* linear = dynamic_cast<Linear*>(layers_[i].get());
    auto* act = linear && i + 1 < layers_.size()
                    ? dynamic_cast<ActivationLayer*>(layers_[i + 1].get())
                    : nullptr;
    if (linear && act) {
      y = &linear->forward_fused(*y, act->kind());
      act->prime_from_output(*y);
      ++i;
    } else {
      y = &layers_[i]->forward(*y);
    }
  }
  return *y;
}

const Matrix& Mlp::backward(const Matrix& grad_out, Backprop mode,
                            GradStore store) {
  const Matrix* g = &grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (auto* linear = dynamic_cast<Linear*>(layers_[i].get())) {
      // kInputOnly holds for every layer; kParamsOnly only drops the first
      // layer's dX, which every layer above still needs.
      const bool own = i == 0 || mode == Backprop::kInputOnly;
      // A ReLU below (always primed from the Linear under it by forward())
      // is differentiated in this layer's dX store and skipped.
      const auto* act =
          i > 0 ? dynamic_cast<ActivationLayer*>(layers_[i - 1].get())
                : nullptr;
      const bool relu = act != nullptr && act->kind() == Activation::kRelu;
      g = &linear->backward(*g, own ? mode : Backprop::kFull, store, relu);
      if (relu) --i;
    } else {
      g = &layers_[i]->backward(*g);
    }
  }
  return *g;
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<Param> Mlp::params() {
  std::vector<Param> all;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) all.push_back(p);
  }
  return all;
}

std::vector<double> Mlp::forward_one(std::span<const double> x) {
  row_in_.resize(1, x.size());
  std::copy(x.begin(), x.end(), row_in_.data());
  const Matrix& y = forward(row_in_);
  return {y.flat().begin(), y.flat().end()};
}

namespace {

// The next Linear layer at or after `i`, or null past the end; advances i.
Linear* next_linear(std::vector<std::unique_ptr<Layer>>& layers,
                    std::size_t& i) {
  for (; i < layers.size(); ++i) {
    if (auto* linear = dynamic_cast<Linear*>(layers[i].get())) return linear;
  }
  return nullptr;
}

bool same_shape(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols();
}

}  // namespace

void Mlp::soft_update_from(Mlp& src, double tau) {
  // Pairs the two stacks' Linear layers in order (the order params() lists
  // their tensors in) without building the parameter lists, and checks
  // every shape before the second pass touches a weight.
  for (const bool apply : {false, true}) {
    for (std::size_t i = 0, j = 0;; ++i, ++j) {
      Linear* d = next_linear(layers_, i);
      Linear* s = next_linear(src.layers_, j);
      if (d == nullptr || s == nullptr) {
        if (d != s) {
          throw std::invalid_argument(
              "soft_update_from: layer structure mismatch");
        }
        break;
      }
      if (!apply) {
        if (!same_shape(d->weights(), s->weights()) ||
            !same_shape(d->bias(), s->bias())) {
          throw std::invalid_argument("soft_update_from: shape mismatch");
        }
        continue;
      }
      common::simd::soft_update(d->weights().data(), s->weights().data(),
                                d->weights().size(), tau);
      common::simd::soft_update(d->bias().data(), s->bias().data(),
                                d->bias().size(), tau);
    }
  }
}

void Mlp::copy_params_from(Mlp& src) { soft_update_from(src, 1.0); }

std::size_t Mlp::num_parameters() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->size();
  return n;
}

void Mlp::save(std::ostream& os) {
  auto ps = params();
  os << ps.size() << '\n';
  os.precision(17);
  for (const auto& p : ps) {
    os << p.value->rows() << ' ' << p.value->cols() << '\n';
    for (double v : p.value->flat()) os << v << ' ';
    os << '\n';
  }
}

void Mlp::load(std::istream& is) {
  auto ps = params();
  std::size_t count = 0;
  is >> count;
  if (count != ps.size()) {
    throw std::runtime_error("Mlp::load: parameter tensor count mismatch");
  }
  for (auto& p : ps) {
    std::size_t r = 0, c = 0;
    is >> r >> c;
    if (r != p.value->rows() || c != p.value->cols()) {
      throw std::runtime_error("Mlp::load: shape mismatch");
    }
    for (double& v : p.value->flat()) is >> v;
  }
  if (!is) throw std::runtime_error("Mlp::load: truncated stream");
}

double mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad) {
  if (pred.rows() != target.rows() || pred.cols() != target.cols()) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  grad = Matrix(pred.rows(), pred.cols());
  double loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double diff = pred.flat()[i] - target.flat()[i];
    loss += diff * diff;
    grad.flat()[i] = 2.0 * diff * inv_n;
  }
  return loss * inv_n;
}

}  // namespace deepcat::nn
