// Bit-exactness properties of the dense-layer kernels on every selectable
// ISA tier: the register-blocked gemm_nt against a per-output model of the
// 1x4 dot kernel it replaced, gemm_nn / gemm_tn against their per-element
// FMA chains, and the branch-free ReLU / ReLU-gradient / column-sum
// kernels against their scalar formulas. Equality is memcmp, not
// a tolerance: the TD3 train step must produce the same bits as before.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace deepcat::common::simd {
namespace {

class BackendGuard {
 public:
  ~BackendGuard() { force_backend(Backend::kAvx512); }
};

std::vector<Backend> selectable_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (backend_selectable(b)) out.push_back(b);
  }
  return out;
}

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// One output of the 1x4 dot kernel on a vector tier: a single accumulator
// of `lanes` lanes over p (per-lane FMA), that tier's horizontal sum, then
// the scalar tail in ascending p (the kernels' contracted s += a*b).
double blocked_dot_model(const double* a, const double* b, std::size_t k,
                         std::size_t lanes) {
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t p = 0;
  for (; p + lanes <= k; p += lanes) {
    for (std::size_t l = 0; l < lanes; ++l) {
      acc[l] = std::fma(a[p + l], b[p + l], acc[l]);
    }
  }
  double s = 0.0;
  if (lanes == 4) {
    // hsum: (lo128 + hi128), then element 0 + element 1.
    s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  } else {
    // _mm512_reduce_add_pd: hi4 + lo4, hi pair + lo pair, 0 + 1.
    double t3[4], t6[2];
    for (int i = 0; i < 4; ++i) t3[i] = acc[i + 4] + acc[i];
    for (int i = 0; i < 2; ++i) t6[i] = t3[i + 2] + t3[i];
    s = t6[0] + t6[1];
  }
  for (; p < k; ++p) s = std::fma(a[p], b[p], s);
  return s;
}

// C += A * B^T as the 1x4 kernel computed it: columns in full groups of 4
// take the blocked-dot model, the n % 4 leftovers (and every column on the
// scalar tier) take dot() on the active tier.
void gemm_nt_model(Backend be, std::size_t m, std::size_t n, std::size_t k,
                   const double* a, std::size_t lda, const double* b,
                   std::size_t ldb, double* c, std::size_t ldc) {
  const std::size_t lanes =
      be == Backend::kAvx512 ? 8 : (be == Backend::kAvx2 ? 4 : 0);
  const std::size_t n4 = n - n % 4;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double* ai = a + i * lda;
      const double* bj = b + j * ldb;
      const double s = lanes != 0 && j < n4 ? blocked_dot_model(ai, bj, k, lanes)
                                            : dot(ai, bj, k);
      c[i * ldc + j] += s;
    }
  }
}

TEST(SimdLayerKernelTest, GemmNtBlockedMatchesPerOutputModelBitForBit) {
  BackendGuard guard;
  Rng rng(41);
  const std::size_t dims[] = {1, 3, 4, 5, 8, 64};
  const std::size_t ks[] = {1, 7, 8, 9, 41, 128};
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const std::size_t m : dims) {
      for (const std::size_t n : dims) {
        for (const std::size_t k : ks) {
          // Padded leading dimensions keep the kernels honest about
          // strides; C starts non-zero so the C += s epilogue is checked.
          const std::size_t lda = k + 1, ldb = k + 3, ldc = n + 2;
          const auto a = random_vec(m * lda, rng);
          const auto b = random_vec(n * ldb, rng);
          const auto c0 = random_vec(m * ldc, rng);
          auto got = c0;
          auto want = c0;
          gemm_nt(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
          gemm_nt_model(be, m, n, k, a.data(), lda, b.data(), ldb,
                        want.data(), ldc);
          EXPECT_TRUE(same_bits(got, want))
              << backend_label(be) << " m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

// C += op(A) * B as the broadcast kernels compute each element. Vector
// tiers: columns inside the register tiles run one FMA chain from the
// stored C in ascending p; leftover columns sum a separate FMA chain from
// +0.0 and add it to C. How many columns the tiles cover depends on the
// tier and on whether the row sits in a 4-row block. Scalar tier: C +=
// a*b per p (rounded product, no FMA), skipping a == 0. `transposed_a`
// selects gemm_tn's (k x m) A.
void broadcast_gemm_model(Backend be, bool transposed_a, std::size_t m,
                          std::size_t n, std::size_t k, const double* a,
                          std::size_t lda, const double* b, std::size_t ldb,
                          double* c, std::size_t ldc) {
  const std::size_t m4 = m - m % 4;
  const std::size_t width = be == Backend::kAvx512 ? 16 : 8;
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t tiled = n - n % width;
    // gemm_nn's 4-row blocks add one half-width tile before the leftovers.
    if (!transposed_a && i < m4 && n % width >= width / 2) tiled += width / 2;
    for (std::size_t j = 0; j < n; ++j) {
      double& out = c[i * ldc + j];
      const auto a_at = [&](std::size_t p) {
        return transposed_a ? a[p * lda + i] : a[i * lda + p];
      };
      if (be == Backend::kScalar) {
        for (std::size_t p = 0; p < k; ++p) {
          const double ap = a_at(p);
          if (ap == 0.0) continue;
          const double prod = ap * b[p * ldb + j];
          out = out + prod;
        }
      } else if (j < tiled) {
        for (std::size_t p = 0; p < k; ++p) {
          out = std::fma(a_at(p), b[p * ldb + j], out);
        }
      } else {
        double s = 0.0;
        for (std::size_t p = 0; p < k; ++p) s = std::fma(a_at(p), b[p * ldb + j], s);
        out += s;
      }
    }
  }
}

TEST(SimdLayerKernelTest, GemmNnTnKeepPerElementChainsBitForBit) {
  BackendGuard guard;
  Rng rng(45);
  const std::size_t ms[] = {1, 3, 4, 5, 8, 9, 12, 16, 17, 64};
  const std::size_t ns[] = {1, 3, 4, 5, 8, 9, 15, 16, 17, 24, 33, 128};
  const std::size_t ks[] = {1, 7, 41, 64};
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const bool transposed_a : {false, true}) {
      for (const std::size_t m : ms) {
        for (const std::size_t n : ns) {
          for (const std::size_t k : ks) {
            const std::size_t lda = (transposed_a ? m : k) + 1;
            const std::size_t ldb = n + 3, ldc = n + 2;
            auto a = random_vec((transposed_a ? k : m) * lda, rng);
            // Some exact zeros exercise the scalar tier's zero-skip.
            for (std::size_t t = 0; t < a.size(); t += 5) a[t] = 0.0;
            const auto b = random_vec(k * ldb, rng);
            const auto c0 = random_vec(m * ldc, rng);
            auto got = c0;
            auto want = c0;
            if (transposed_a) {
              gemm_tn(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
            } else {
              gemm_nn(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
            }
            broadcast_gemm_model(be, transposed_a, m, n, k, a.data(), lda,
                                 b.data(), ldb, want.data(), ldc);
            EXPECT_TRUE(same_bits(got, want))
                << backend_label(be) << (transposed_a ? " tn" : " nn")
                << " m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

// Signed zeros, NaNs, infinities, denormals and ordinary values, cycled to
// lengths that straddle every vector width and its scalar tail.
std::vector<double> special_values(std::size_t n, Rng& rng) {
  const double kSpecial[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4.0,
      -std::numeric_limits<double>::min() / 4.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      1.0,
      -1.0,
  };
  constexpr std::size_t kCount = sizeof(kSpecial) / sizeof(kSpecial[0]);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = i % 3 == 2 ? rng.normal() : kSpecial[(i * 5 + n) % kCount];
  }
  return v;
}

const std::size_t kLengths[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 131};

TEST(SimdLayerKernelTest, ReluMatchesScalarFormulaBitForBit) {
  BackendGuard guard;
  Rng rng(42);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const std::size_t n : kLengths) {
      const auto x = special_values(n, rng);
      auto got = x;
      relu(got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double want = x[i] > 0.0 ? x[i] : 0.0;
        EXPECT_TRUE(same_bits(got[i], want))
            << backend_label(be) << " n=" << n << " x=" << x[i];
      }
    }
  }
}

TEST(SimdLayerKernelTest, ReluGradMatchesScalarFormulaBitForBit) {
  BackendGuard guard;
  Rng rng(43);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const std::size_t n : kLengths) {
      const auto y = special_values(n, rng);
      auto g = special_values(n, rng);
      std::reverse(g.begin(), g.end());
      std::vector<double> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = g[i];
        if (y[i] <= 0.0) want[i] = 0.0;
      }
      std::vector<double> out(n, 7.0);
      relu_grad(g.data(), y.data(), out.data(), n);
      EXPECT_TRUE(same_bits(out, want)) << backend_label(be) << " n=" << n;
      // In place (out aliases g), as apply_activation_grad runs it.
      relu_grad(g.data(), y.data(), g.data(), n);
      EXPECT_TRUE(same_bits(g, want))
          << backend_label(be) << " in place, n=" << n;
    }
  }
}

TEST(SimdLayerKernelTest, ColSumsAddKeepsRowOrderPerColumn) {
  BackendGuard guard;
  Rng rng(44);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const std::size_t rows : {0u, 1u, 3u, 64u}) {
      for (const std::size_t cols : {1u, 3u, 8u, 9u, 17u, 128u}) {
        const std::size_t lda = cols + 1;
        const auto a = random_vec(rows * lda, rng);
        const auto out0 = random_vec(cols, rng);
        auto got = out0;
        auto want = out0;
        col_sums_add(rows, cols, a.data(), lda, got.data());
        for (std::size_t j = 0; j < cols; ++j) {
          double s = 0.0;
          for (std::size_t r = 0; r < rows; ++r) s += a[r * lda + j];
          want[j] += s;
        }
        EXPECT_TRUE(same_bits(got, want))
            << backend_label(be) << " rows=" << rows << " cols=" << cols;
      }
    }
  }
}

}  // namespace
}  // namespace deepcat::common::simd
