// Multi-layer perceptron container plus the target-network utilities
// (soft updates, hard copies) that DDPG/TD3 need.
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nn/layers.hpp"

namespace deepcat::nn {

/// Output squashing applied after the last Linear layer.
enum class OutputActivation { kNone, kTanh, kSigmoid };

/// Sequential stack of layers with convenience builders for the DRL nets.
class Mlp {
 public:
  Mlp() = default;

  /// Builds Linear+ReLU hidden stack, final Linear (small-uniform init) and
  /// optional squashing. `dims` = {in, h1, ..., out}; needs >= 2 entries.
  Mlp(const std::vector<std::size_t>& dims, common::Rng& rng,
      OutputActivation out_act = OutputActivation::kNone);

  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) noexcept = default;
  Mlp& operator=(Mlp&&) noexcept = default;

  /// Forward through the stack. The result lives in the last layer's
  /// workspace until the next forward(); `x` must outlive the matching
  /// backward() (layers.hpp lifetime rule). Allocation-free once the
  /// workspaces have seen the largest batch.
  [[nodiscard]] const Matrix& forward(const Matrix& x);
  /// Backward through the whole stack; returns dL/dx, or an empty matrix
  /// under Backprop::kParamsOnly (the first layer's dL/dx is never
  /// computed). Each hidden ReLU is differentiated in the dL/dx store of
  /// the Linear above it (Linear::backward's relu_input). Backprop::kInputOnly leaves every parameter gradient as it
  /// was. GradStore::kOverwrite writes the parameter gradients instead of
  /// accumulating them, which stands in for a preceding zero_grad(). A
  /// moved Mlp needs a fresh forward() before backward().
  const Matrix& backward(const Matrix& grad_out,
                         Backprop mode = Backprop::kFull,
                         GradStore store = GradStore::kAccumulate);

  void zero_grad();
  [[nodiscard]] std::vector<Param> params();

  /// Single-sample convenience: forward on a 1 x n input (copied into a
  /// 1-row workspace, so the call leaves no dangling forward input).
  [[nodiscard]] std::vector<double> forward_one(std::span<const double> x);

  /// this = tau * src + (1 - tau) * this, parameter-wise (simd::soft_update:
  /// two products and a sum, each rounded). Shapes must match.
  void soft_update_from(Mlp& src, double tau);
  /// this = src (hard copy of parameters).
  void copy_params_from(Mlp& src);

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t num_parameters();

  /// Writes/reads parameters as a flat text stream (shape-checked on load).
  void save(std::ostream& os);
  void load(std::istream& is);

  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  Matrix row_in_;  ///< forward_one input workspace
};

/// Mean-squared-error loss over a batch: L = mean((pred - target)^2).
/// Returns the loss and writes dL/dpred into `grad`.
[[nodiscard]] double mse_loss(const Matrix& pred, const Matrix& target,
                              Matrix& grad);

}  // namespace deepcat::nn
