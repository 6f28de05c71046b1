#include "nn/layers.hpp"

#include <stdexcept>

#include "nn/init.hpp"

namespace deepcat::nn {

namespace {
// What a backward pass that skips dL/dx returns.
const Matrix& empty_matrix() {
  static const Matrix kEmpty;
  return kEmpty;
}
}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features,
               common::Rng& rng, Init init)
    : w_(in_features, out_features),
      b_(1, out_features),
      gw_(in_features, out_features),
      gb_(1, out_features) {
  switch (init) {
    case Init::kKaiming: kaiming_uniform(w_, rng); break;
    case Init::kXavier: xavier_uniform(w_, rng); break;
    case Init::kSmallUniform: uniform_init(w_, rng, 3e-3); break;
  }
}

const Matrix& Linear::forward(const Matrix& x) {
  return forward_fused(x, Activation::kNone);
}

const Matrix& Linear::forward_fused(const Matrix& x, Activation act) {
  matmul_bias_act_into(x, w_, b_, act, y_);
  x_ = &x;
  return y_;
}

const Matrix& Linear::backward(const Matrix& grad_out) {
  return backward(grad_out, Backprop::kFull);
}

const Matrix& Linear::backward(const Matrix& grad_out, Backprop mode) {
  if (x_ == nullptr) {
    throw std::logic_error("Linear::backward: no forward pass to differentiate");
  }
  if (grad_out.rows() != x_->rows() || grad_out.cols() != out_features()) {
    throw std::invalid_argument("Linear::backward: gradient shape mismatch");
  }
  if (mode != Backprop::kInputOnly) {
    matmul_tn_add(*x_, grad_out, gw_);
    col_sums_add(grad_out, gb_);
  }
  if (mode == Backprop::kParamsOnly) return empty_matrix();
  matmul_nt_into(grad_out, w_, dx_);
  return dx_;
}

std::vector<Param> Linear::params() {
  return {{"w", &w_, &gw_}, {"b", &b_, &gb_}};
}

void Linear::zero_grad() {
  gw_.set_zero();
  gb_.set_zero();
}

std::unique_ptr<Layer> Linear::clone() const {
  // Parameters and gradients only: the copy starts with empty workspaces
  // and no remembered input.
  auto copy = std::make_unique<Linear>(*this);
  copy->y_ = Matrix{};
  copy->dx_ = Matrix{};
  copy->x_ = nullptr;
  return copy;
}

const Matrix& ActivationLayer::forward(const Matrix& x) {
  out_ = x;
  apply_activation(out_, kind());
  y_ = &out_;
  return out_;
}

const Matrix& ActivationLayer::backward(const Matrix& grad_out) {
  if (y_ == nullptr) {
    throw std::logic_error(
        "ActivationLayer::backward: no forward pass to differentiate");
  }
  apply_activation_grad(grad_out, *y_, kind(), grad_);
  return grad_;
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>();
}

std::unique_ptr<Layer> Tanh::clone() const {
  return std::make_unique<Tanh>();
}

std::unique_ptr<Layer> Sigmoid::clone() const {
  return std::make_unique<Sigmoid>();
}

}  // namespace deepcat::nn
