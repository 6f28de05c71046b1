// Property tests for the GEMM family against a naive triple-loop
// reference: odd shapes (1x1, 1xn, nx1, non-multiples of the 4x8 register
// block) and shapes of 256 and more, agreement within 1e-12 on every
// selectable ISA tier, the fused bias+activation epilogue for all
// activations, and the cache-blocked transpose.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace deepcat::nn {
namespace {

using common::Rng;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.flat()) x = rng.normal();
  return m;
}

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

void expect_close(const Matrix& actual, const Matrix& expected,
                  const char* what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (std::size_t i = 0; i < actual.rows(); ++i) {
    for (std::size_t j = 0; j < actual.cols(); ++j) {
      const double tol = 1e-12 * std::max(1.0, std::abs(expected(i, j)));
      EXPECT_NEAR(actual(i, j), expected(i, j), tol)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

struct Shape {
  std::size_t m, k, n;
};

// 1x1, single row/column, and sizes straddling the 4-row x 8-column
// micro-kernel block and the 4-wide j tail.
const Shape kShapes[] = {{1, 1, 1},   {1, 7, 1},  {1, 3, 9},   {9, 3, 1},
                         {2, 2, 2},   {3, 5, 7},  {4, 8, 8},   {5, 9, 11},
                         {7, 13, 6},  {8, 8, 8},  {12, 4, 20}, {13, 17, 19},
                         {16, 32, 8}, {33, 9, 34}, {64, 64, 64}};

// GEMMs with every dimension at 256 or more, two of them with ragged
// edges past every register tile; they run the same register-blocked
// kernels as the small shapes.
const Shape kLargeShapes[] = {{256, 256, 256}, {259, 261, 263},
                              {300, 270, 265}};

std::vector<Shape> gemm_shapes() {
  std::vector<Shape> out(std::begin(kShapes), std::end(kShapes));
  out.insert(out.end(), std::begin(kLargeShapes), std::end(kLargeShapes));
  return out;
}

std::vector<common::simd::Backend> selectable_backends() {
  using common::simd::Backend;
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (common::simd::backend_selectable(b)) out.push_back(b);
  }
  return out;
}

void use_scalar_backend(bool scalar) {
  common::simd::force_backend(scalar ? common::simd::Backend::kScalar
                                     : common::simd::Backend::kAvx512);
}

class BackendGuard {
 public:
  ~BackendGuard() { use_scalar_backend(false); }
};

TEST(KernelsTest, MatmulMatchesNaiveReferenceOnOddShapes) {
  BackendGuard guard;
  Rng rng(21);
  for (const auto& s : gemm_shapes()) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    const Matrix expected = ref_matmul(a, b);
    for (const auto be : selectable_backends()) {
      common::simd::force_backend(be);
      expect_close(matmul(a, b), expected, common::simd::backend_label(be));
    }
  }
}

TEST(KernelsTest, MatmulTnMatchesNaiveReference) {
  BackendGuard guard;
  Rng rng(22);
  for (const auto& s : gemm_shapes()) {
    const Matrix a = random_matrix(s.k, s.m, rng);  // A^T is m x k
    const Matrix b = random_matrix(s.k, s.n, rng);
    const Matrix expected = ref_matmul(a.transposed(), b);
    for (const auto be : selectable_backends()) {
      common::simd::force_backend(be);
      expect_close(matmul_tn(a, b), expected, common::simd::backend_label(be));
    }
  }
}

TEST(KernelsTest, MatmulNtMatchesNaiveReference) {
  BackendGuard guard;
  Rng rng(23);
  for (const auto& s : gemm_shapes()) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.n, s.k, rng);  // B^T is k x n
    const Matrix expected = ref_matmul(a, b.transposed());
    for (const auto be : selectable_backends()) {
      common::simd::force_backend(be);
      expect_close(matmul_nt(a, b), expected, common::simd::backend_label(be));
    }
  }
}

double apply_ref(double x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

TEST(KernelsTest, MatmulBiasActMatchesUnfusedComposition) {
  BackendGuard guard;
  Rng rng(24);
  for (const Activation act : {Activation::kNone, Activation::kRelu,
                               Activation::kTanh, Activation::kSigmoid}) {
    for (const auto& s : kShapes) {
      const Matrix x = random_matrix(s.m, s.k, rng);
      const Matrix w = random_matrix(s.k, s.n, rng);
      const Matrix bias = random_matrix(1, s.n, rng);

      Matrix expected = ref_matmul(x, w);
      for (std::size_t i = 0; i < expected.rows(); ++i) {
        for (std::size_t j = 0; j < expected.cols(); ++j) {
          expected(i, j) = apply_ref(expected(i, j) + bias(0, j), act);
        }
      }

      expect_close(matmul_bias_act(x, w, bias, act), expected,
                   "matmul_bias_act vectorized");
      use_scalar_backend(true);
      expect_close(matmul_bias_act(x, w, bias, act), expected,
                   "matmul_bias_act scalar");
      use_scalar_backend(false);
    }
  }
}

TEST(KernelsTest, BlockedTransposeIsExact) {
  Rng rng(25);
  // Sizes around the 32x32 tile: sub-tile, exact tiles, ragged edges.
  const std::size_t sizes[] = {1, 2, 5, 31, 32, 33, 64, 65, 100};
  for (std::size_t r : sizes) {
    for (std::size_t c : {std::size_t{1}, std::size_t{33}, std::size_t{70}}) {
      const Matrix m = random_matrix(r, c, rng);
      const Matrix t = m.transposed();
      ASSERT_EQ(t.rows(), c);
      ASSERT_EQ(t.cols(), r);
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          EXPECT_EQ(t(j, i), m(i, j)) << r << "x" << c;
        }
      }
      const Matrix round_trip = t.transposed();
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          EXPECT_EQ(round_trip(i, j), m(i, j));
        }
      }
    }
  }
}

TEST(KernelsTest, FusedLinearForwardMatchesUnfusedLayers) {
  Rng rng(27);
  for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
    Linear fused_layer(10, 13, rng);
    Linear plain_layer = fused_layer;
    const Matrix x = random_matrix(5, 10, rng);

    const Matrix fused = fused_layer.forward_fused(x, act);
    Matrix unfused = plain_layer.forward(x);
    apply_activation(unfused, act);
    expect_close(fused, unfused, "forward_fused");
  }
}

TEST(KernelsTest, MlpForwardIdenticalUnderBothBackends) {
  BackendGuard guard;
  Rng rng(28);
  Mlp net({9, 32, 32, 4}, rng);
  Matrix x = random_matrix(7, 9, rng);
  for (double& v : x.flat()) v = rng.uniform();

  const Matrix y_vec = net.forward(x);
  use_scalar_backend(true);
  const Matrix y_scalar = net.forward(x);
  use_scalar_backend(false);
  expect_close(y_vec, y_scalar, "mlp forward scalar vs vector");
}

// One optimizer-step worth of tensors with sizes straddling the 4-wide
// SIMD lanes, run through the fused clip+update kernel and through the
// unfused composition (norm reduction via dot, then per-tensor
// adam_update) under the same backend. The fused kernel documents
// bit-identical results, so compare with EXPECT_EQ, for clipping
// disabled (grad_clip <= 0), not triggered, and triggered.
TEST(KernelsTest, AdamUpdateClippedMatchesUnfusedCompositionBitExact) {
  BackendGuard guard;
  namespace simd = common::simd;
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kLr = 1e-3, kEps = 1e-8;
  constexpr double kBc1 = 1.0 - 0.9, kBc2 = 1.0 - 0.999;  // step 1
  const std::size_t sizes[] = {1, 3, 17, 64, 5};

  for (const bool scalar : {false, true}) {
    use_scalar_backend(scalar);
    for (const double grad_clip : {-1.0, 0.0, 1e9, 0.5}) {
      Rng rng(29);
      std::vector<std::vector<double>> value, grad, m, v;
      std::vector<std::vector<double>> ref_value, ref_m, ref_v;
      for (const std::size_t n : sizes) {
        auto draw = [&rng](std::size_t len) {
          std::vector<double> out(len);
          for (double& x : out) x = rng.normal();
          return out;
        };
        value.push_back(draw(n));
        grad.push_back(draw(n));
        m.push_back(draw(n));
        v.push_back(draw(n));
        for (double& x : v.back()) x = std::abs(x);  // second moments >= 0
        ref_value.push_back(value.back());
        ref_m.push_back(m.back());
        ref_v.push_back(v.back());
      }

      // Unfused reference under the same backend.
      double scale = 1.0;
      if (grad_clip > 0.0) {
        double sq = 0.0;
        for (std::size_t t = 0; t < std::size(sizes); ++t) {
          sq += simd::dot(grad[t].data(), grad[t].data(), sizes[t]);
        }
        const double norm = std::sqrt(sq);
        if (norm > grad_clip) scale = grad_clip / norm;
      }
      for (std::size_t t = 0; t < std::size(sizes); ++t) {
        simd::adam_update(ref_value[t].data(), grad[t].data(),
                          ref_m[t].data(), ref_v[t].data(), sizes[t], scale,
                          kBeta1, kBeta2, kBc1, kBc2, kLr, kEps);
      }

      std::vector<simd::AdamTensor> tensors;
      for (std::size_t t = 0; t < std::size(sizes); ++t) {
        tensors.push_back({value[t].data(), grad[t].data(), m[t].data(),
                           v[t].data(), sizes[t]});
      }
      simd::adam_update_clipped(tensors.data(), tensors.size(), grad_clip,
                                kBeta1, kBeta2, kBc1, kBc2, kLr, kEps);

      for (std::size_t t = 0; t < std::size(sizes); ++t) {
        for (std::size_t i = 0; i < sizes[t]; ++i) {
          EXPECT_EQ(value[t][i], ref_value[t][i])
              << (scalar ? "scalar" : "vector") << " clip=" << grad_clip
              << " tensor " << t << " elem " << i;
          EXPECT_EQ(m[t][i], ref_m[t][i]) << "m tensor " << t;
          EXPECT_EQ(v[t][i], ref_v[t][i]) << "v tensor " << t;
        }
      }
    }
    use_scalar_backend(false);
  }
}

// The two backends agree to the usual 1e-12 reduction tolerance on the
// updated parameters.
TEST(KernelsTest, AdamUpdateClippedBackendsAgree) {
  BackendGuard guard;
  namespace simd = common::simd;
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kLr = 1e-3, kEps = 1e-8;
  constexpr double kBc1 = 1.0 - 0.9, kBc2 = 1.0 - 0.999;
  const std::size_t n = 103;

  auto run = [&](bool scalar) {
    use_scalar_backend(scalar);
    Rng rng(30);
    std::vector<double> value(n), grad(n), m(n), v(n);
    for (double& x : value) x = rng.normal();
    for (double& x : grad) x = rng.normal();
    for (double& x : m) x = rng.normal();
    for (double& x : v) x = std::abs(rng.normal());
    simd::AdamTensor tensor{value.data(), grad.data(), m.data(), v.data(), n};
    simd::adam_update_clipped(&tensor, 1, /*grad_clip=*/0.5, kBeta1, kBeta2,
                              kBc1, kBc2, kLr, kEps);
    use_scalar_backend(false);
    return value;
  };

  const std::vector<double> vec = run(false);
  const std::vector<double> sca = run(true);
  for (std::size_t i = 0; i < n; ++i) {
    const double tol = 1e-12 * std::max(1.0, std::abs(sca[i]));
    EXPECT_NEAR(vec[i], sca[i], tol) << "elem " << i;
  }
}

TEST(KernelsTest, ActivationGradFromOutputMatchesDefinition) {
  Rng rng(26);
  const Matrix x = random_matrix(6, 9, rng);
  // ReLU: y > 0 iff x > 0, so masking on the output equals masking on the
  // input — the identity that makes Linear+ReLU fusion backward-safe.
  Matrix y = x;
  apply_activation(y, Activation::kRelu);
  Matrix grad(6, 9);
  for (double& g : grad.flat()) g = 1.0;
  apply_activation_grad(grad, y, Activation::kRelu);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(grad(i, j), x(i, j) > 0.0 ? 1.0 : 0.0);
    }
  }

  // Tanh: d/dx = 1 - y^2 computed from the cached output.
  Matrix yt = x;
  apply_activation(yt, Activation::kTanh);
  Matrix gt(6, 9);
  for (double& g : gt.flat()) g = 1.0;
  apply_activation_grad(gt, yt, Activation::kTanh);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double t = std::tanh(x(i, j));
      EXPECT_NEAR(gt(i, j), 1.0 - t * t, 1e-12);
    }
  }
}

}  // namespace
}  // namespace deepcat::nn
