// The workspace MLP passes against the unfused composition of the public
// Matrix calls (matmul_bias_act, matmul_tn, matmul_nt, col_sums,
// apply_activation_grad), bit for bit on every selectable ISA tier; the
// Backprop modes against a full backward; and workspace reuse across
// batch sizes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace deepcat::nn {
namespace {

using common::Rng;
namespace simd = common::simd;

class BackendGuard {
 public:
  ~BackendGuard() { simd::force_backend(simd::Backend::kAvx512); }
};

std::vector<simd::Backend> selectable_backends() {
  std::vector<simd::Backend> out;
  for (auto b : {simd::Backend::kScalar, simd::Backend::kAvx2,
                 simd::Backend::kAvx512}) {
    if (simd::backend_selectable(b)) out.push_back(b);
  }
  return out;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.flat()) x = rng.normal();
  return m;
}

::testing::AssertionResult same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "bits differ";
  }
  return ::testing::AssertionSuccess();
}

// The nets TD3 builds: a critic (41 -> 128 -> 128 -> 1, no squashing) and
// an actor (9 -> 128 -> 128 -> 32, sigmoid output).
struct NetCase {
  std::vector<std::size_t> dims;
  OutputActivation out;
  Activation out_act;
};

const NetCase kNets[] = {
    {{41, 128, 128, 1}, OutputActivation::kNone, Activation::kNone},
    {{9, 128, 128, 32}, OutputActivation::kSigmoid, Activation::kSigmoid},
    {{5, 7, 3}, OutputActivation::kTanh, Activation::kTanh},
};

// Forward and backward of an Mlp spelled out as public Matrix calls, the
// way the layers computed them before workspaces: fresh matrices, weight
// gradients as 0 + matmul_tn, bias gradients as 0 + col_sums.
struct Unfused {
  std::vector<Matrix> acts;   // x, h1, ..., y
  std::vector<Matrix> grads;  // gw, gb per layer, in params() order
  Matrix dx;
};

Unfused unfused_pass(Mlp& net, const Matrix& x, const Matrix& g,
                     Activation out_act) {
  auto ps = net.params();
  const std::size_t layers = ps.size() / 2;
  Unfused u;
  u.acts.push_back(x);
  for (std::size_t l = 0; l < layers; ++l) {
    const Activation act = l + 1 < layers ? Activation::kRelu : out_act;
    u.acts.push_back(
        matmul_bias_act(u.acts.back(), *ps[2 * l].value, *ps[2 * l + 1].value,
                        act));
  }
  u.grads.resize(ps.size());
  Matrix d = g;
  apply_activation_grad(d, u.acts.back(), out_act);
  for (std::size_t l = layers; l-- > 0;) {
    u.grads[2 * l] = Matrix(ps[2 * l].value->rows(), ps[2 * l].value->cols());
    u.grads[2 * l] += matmul_tn(u.acts[l], d);
    u.grads[2 * l + 1] = Matrix(1, ps[2 * l + 1].value->cols());
    u.grads[2 * l + 1] += col_sums(d);
    Matrix d_in = matmul_nt(d, *ps[2 * l].value);
    if (l > 0) apply_activation_grad(d_in, u.acts[l], Activation::kRelu);
    d = std::move(d_in);
  }
  u.dx = std::move(d);
  return u;
}

TEST(WorkspaceMlpTest, ForwardBackwardMatchUnfusedCompositionBitForBit) {
  BackendGuard guard;
  for (const auto be : selectable_backends()) {
    simd::force_backend(be);
    for (const NetCase& nc : kNets) {
      for (const std::size_t batch : {std::size_t{64}, std::size_t{1},
                                      std::size_t{5}}) {
        Rng rng(11);
        Mlp net(nc.dims, rng, nc.out);
        const Matrix x = random_matrix(batch, nc.dims.front(), rng);
        const Matrix g = random_matrix(batch, nc.dims.back(), rng);
        const Unfused want = unfused_pass(net, x, g, nc.out_act);

        net.zero_grad();
        const Matrix& y = net.forward(x);
        EXPECT_TRUE(same_bits(y, want.acts.back()))
            << simd::backend_label(be) << " forward, batch " << batch;
        const Matrix& dx = net.backward(g);
        EXPECT_TRUE(same_bits(dx, want.dx))
            << simd::backend_label(be) << " dx, batch " << batch;
        const auto ps = net.params();
        for (std::size_t i = 0; i < ps.size(); ++i) {
          EXPECT_TRUE(same_bits(*ps[i].grad, want.grads[i]))
              << simd::backend_label(be) << " grad " << i << ", batch "
              << batch;
        }
      }
    }
  }
}

std::vector<Matrix> grads_of(Mlp& net) {
  std::vector<Matrix> out;
  for (const auto& p : net.params()) out.push_back(*p.grad);
  return out;
}

TEST(WorkspaceMlpTest, ParamsOnlyBackwardLeavesIdenticalGradients) {
  BackendGuard guard;
  for (const auto be : selectable_backends()) {
    simd::force_backend(be);
    for (const NetCase& nc : kNets) {
      Rng rng(12);
      Mlp net(nc.dims, rng, nc.out);
      const Matrix x = random_matrix(64, nc.dims.front(), rng);
      const Matrix g = random_matrix(64, nc.dims.back(), rng);

      net.zero_grad();
      (void)net.forward(x);
      (void)net.backward(g);
      const auto full = grads_of(net);

      net.zero_grad();
      (void)net.forward(x);
      const Matrix& skipped = net.backward(g, Backprop::kParamsOnly);
      EXPECT_TRUE(skipped.empty());
      const auto partial = grads_of(net);
      ASSERT_EQ(partial.size(), full.size());
      for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_TRUE(same_bits(partial[i], full[i]))
            << simd::backend_label(be) << " grad " << i;
      }
    }
  }
}

TEST(WorkspaceMlpTest, InputOnlyBackwardLeavesParameterGradientsUntouched) {
  Rng rng(13);
  Mlp net({41, 128, 128, 1}, rng);
  const Matrix x = random_matrix(64, 41, rng);
  const Matrix g = random_matrix(64, 1, rng);

  net.zero_grad();
  (void)net.forward(x);
  const Matrix full_dx = net.backward(g);

  for (auto& p : net.params()) p.grad->fill(0.25);
  const auto before = grads_of(net);
  (void)net.forward(x);
  const Matrix& dx = net.backward(g, Backprop::kInputOnly);
  EXPECT_TRUE(same_bits(dx, full_dx));
  const auto after = grads_of(net);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(same_bits(after[i], before[i])) << "grad " << i;
  }
}

TEST(WorkspaceMlpTest, WorkspacesServeAlternatingBatchSizes) {
  // One net alternating 64-row and 1-row calls (train batch vs act/twin_q)
  // must compute what fresh copies compute at each size.
  Rng rng(14);
  Mlp net({41, 128, 128, 1}, rng);
  const Matrix x64 = random_matrix(64, 41, rng);
  const Matrix x1 = random_matrix(1, 41, rng);
  Mlp fresh64 = net;
  Mlp fresh1 = net;
  const Matrix want64 = fresh64.forward(x64);
  const Matrix want1 = fresh1.forward(x1);
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(same_bits(net.forward(x64), want64)) << "round " << round;
    EXPECT_TRUE(same_bits(net.forward(x1), want1)) << "round " << round;
  }
  const std::vector<double> one(x1.flat().begin(), x1.flat().end());
  EXPECT_EQ(net.forward_one(one), std::vector<double>(want1.flat().begin(),
                                                      want1.flat().end()));
}

TEST(WorkspaceMlpTest, BackwardBeforeForwardThrows) {
  Rng rng(15);
  Linear lin(3, 2, rng);
  EXPECT_THROW((void)lin.backward(Matrix(1, 2)), std::logic_error);
  ReLU relu;
  EXPECT_THROW((void)relu.backward(Matrix(1, 2)), std::logic_error);
  const Matrix x(4, 3, 1.0);
  (void)lin.forward(x);
  EXPECT_THROW((void)lin.backward(Matrix(3, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace deepcat::nn
