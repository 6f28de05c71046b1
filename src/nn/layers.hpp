// Dense layers with explicit forward/backward passes. Batches are
// row-major: x is (batch x features).
//
// Workspaces: every layer owns the matrices its passes write (output, input
// gradient) and reuses their allocations across calls, so a warmed-up layer
// allocates nothing. forward()/backward() return references into those
// workspaces, valid until the layer's next forward()/backward().
//
// Lifetime rule: a layer remembers its forward input by address, not by
// copy. The matrix passed to forward() must stay alive and unchanged until
// the matching backward() (DESIGN.md §7, "TD3 train step").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace deepcat::nn {

/// One named parameter tensor paired with its gradient accumulator.
struct Param {
  std::string name;
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
};

/// Which gradients a backward pass produces. TD3 reads neither a critic's
/// input gradient on its own update nor the actor's input gradient, and it
/// discards the critic's parameter gradients of the actor update.
enum class Backprop {
  kFull,        ///< parameter gradients and dL/dx
  kParamsOnly,  ///< parameter gradients; dL/dx of the first layer skipped
  kInputOnly,   ///< dL/dx only; parameter gradients left untouched
};

/// How a backward pass stores parameter gradients. kAccumulate adds onto
/// what the gradients hold (the zero_grad()-then-backward protocol);
/// kOverwrite writes them as if they had been zeroed first, bit for bit
/// (simd::Store::kSet), so a caller that writes each gradient once per
/// update needs no zero_grad() pass.
enum class GradStore { kAccumulate, kOverwrite };

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// y = f(x) into the layer's output workspace; remembers what backward()
  /// needs (`x` by address — see the lifetime rule above).
  virtual const Matrix& forward(const Matrix& x) = 0;

  /// Given dL/dy, accumulates parameter gradients and returns dL/dx.
  virtual const Matrix& backward(const Matrix& grad_out) = 0;

  /// Parameter/gradient handles (empty for activations).
  virtual std::vector<Param> params() { return {}; }

  virtual void zero_grad() {}

  /// Deep copy (weights included, caches excluded).
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Fully connected layer: y = x W + b, W is (in x out), b is (1 x out).
class Linear final : public Layer {
 public:
  enum class Init { kKaiming, kXavier, kSmallUniform };

  Linear(std::size_t in_features, std::size_t out_features, common::Rng& rng,
         Init init = Init::kKaiming);

  const Matrix& forward(const Matrix& x) override;
  /// Fused act(x W + b) in one kernel pass (no intermediate pre-activation
  /// matrix). Remembers x for backward exactly like forward(); the caller
  /// is responsible for priming the downstream activation layer with the
  /// returned output (see Mlp::forward).
  const Matrix& forward_fused(const Matrix& x, Activation act);
  const Matrix& backward(const Matrix& grad_out) override;
  /// backward() restricted to the gradients `mode` asks for, from one
  /// gemm_tn sweep (weight and bias gradients) and one gemm_nt (dL/dx).
  /// gw/gb accumulate in place, or are overwritten under
  /// GradStore::kOverwrite. With `relu_input` the forward input x was a
  /// ReLU's output, and the returned gradient is the one at that ReLU's
  /// input (dL/dx masked to +0.0 where x <= 0) — the ReLU layer's own
  /// backward folded into this one's store. Returns an empty matrix under
  /// Backprop::kParamsOnly.
  const Matrix& backward(const Matrix& grad_out, Backprop mode,
                         GradStore store = GradStore::kAccumulate,
                         bool relu_input = false);
  std::vector<Param> params() override;
  void zero_grad() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Linear"; }

  [[nodiscard]] std::size_t in_features() const noexcept { return w_.rows(); }
  [[nodiscard]] std::size_t out_features() const noexcept { return w_.cols(); }
  [[nodiscard]] const Matrix& weights() const noexcept { return w_; }
  [[nodiscard]] Matrix& weights() noexcept { return w_; }
  [[nodiscard]] const Matrix& bias() const noexcept { return b_; }
  [[nodiscard]] Matrix& bias() noexcept { return b_; }

 private:
  Matrix w_, b_, gw_, gb_;
  Matrix y_;   ///< forward output workspace
  Matrix dx_;  ///< input-gradient workspace
  const Matrix* x_ = nullptr;  ///< last forward input (lifetime rule)
};

/// Base for element-wise activations. All supported activations have
/// derivatives expressible in terms of their OUTPUT, so backward only needs
/// the output — which lets Mlp::forward fuse the preceding Linear's GEMM
/// with the activation and point this layer at the fused result via
/// prime_from_output().
class ActivationLayer : public Layer {
 public:
  [[nodiscard]] virtual Activation kind() const noexcept = 0;

  const Matrix& forward(const Matrix& x) final;
  const Matrix& backward(const Matrix& grad_out) final;

  /// Uses an already-activated output (computed in the preceding Linear's
  /// GEMM epilogue) for backward. `y` is referenced, not copied: it must
  /// outlive the matching backward(), like a forward input.
  void prime_from_output(const Matrix& y) noexcept { y_ = &y; }

 private:
  Matrix out_;   ///< standalone forward() output workspace
  Matrix grad_;  ///< input-gradient workspace
  const Matrix* y_ = nullptr;  ///< output used by backward()
};

/// Rectified linear unit.
class ReLU final : public ActivationLayer {
 public:
  [[nodiscard]] Activation kind() const noexcept override {
    return Activation::kRelu;
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
};

/// Hyperbolic tangent; used on actor outputs before mapping to [0,1].
class Tanh final : public ActivationLayer {
 public:
  [[nodiscard]] Activation kind() const noexcept override {
    return Activation::kTanh;
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }
};

/// Logistic sigmoid; maps actor outputs directly onto the [0,1] knob cube.
class Sigmoid final : public ActivationLayer {
 public:
  [[nodiscard]] Activation kind() const noexcept override {
    return Activation::kSigmoid;
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }
};

}  // namespace deepcat::nn
