// Bit-exactness properties of the dense-layer kernels on every selectable
// ISA tier: the register-blocked gemm_nt against a per-output model of the
// 1x4 dot kernel it replaced, gemm_nn / gemm_tn against their per-element
// FMA chains, the fused epilogues (gemm_nn's bias and ReLU, gemm_nt's
// ReLU-gradient mask, gemm_tn's column sums) against the unfused
// compositions they replaced, and the train step's fast paths (the 1-wide
// critic head's k == 1 and n == 1 GEMMs, the 1-row GEMM, Store::kSet, Adam
// without the bc1 == 1 divide, the soft update) against the same models
// with signed zeros, NaNs and infinities in the inputs. Equality is
// memcmp, not a tolerance: the TD3 train step must produce the same bits
// as before.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
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
  // memcmp must not see the null data() of an empty vector.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// memcmp equality, except that any two NaNs match: with several NaN
// operands x86 returns the first source operand's payload, and which
// operand comes first in a commutative instruction is the compiler's
// choice, in the kernels and in the models alike.
bool same_value(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(std::isnan(a[i]) && std::isnan(b[i])) && !same_bits(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

// One output of the 1x4 dot kernel on a vector tier: a single accumulator
// of `lanes` lanes over p (per-lane FMA), that tier's horizontal sum, then
// the scalar tail in ascending p (the kernels' s = fma(a, b, s)).
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

// ---- Fused dense-layer epilogues ------------------------------------------
// Each fused kernel against the unfused composition it replaced, on every
// tile path: m, n and k straddle the 8x16 bands, the 4-row tiles, the
// half-width tiles, the leftover-column chains, n == 1 and k == 1, with
// contiguous (the 1-wide paths' vector loads and stores) and padded
// strides. Outputs the fused kernel must not read start as NaN garbage;
// the padding past column n must come back untouched.

const std::vector<std::size_t> kEpiMs = {1, 3, 8, 13, 64};
const std::size_t kEpiNs[] = {1, 7, 16, 32, 41, 128};
const std::size_t kEpiKs[] = {1, 9, 41, 128};
const std::size_t kEpiPads[] = {0, 3};

// Random normals, or special_values() cycled through.
std::vector<double> fill_values(std::size_t n, bool special, Rng& rng) {
  return special ? special_values(n, rng) : random_vec(n, rng);
}

// Overwrites the first n columns of every row with NaN garbage.
void garble(std::vector<double>& c, std::size_t m, std::size_t n,
            std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    std::fill_n(c.begin() + static_cast<std::ptrdiff_t>(i * ldc), n,
                std::numeric_limits<double>::quiet_NaN());
  }
}

// Runs `check(m, n, k, pad, special)` over the epilogue shapes.
template <typename Check>
void for_each_epilogue_case(const std::vector<std::size_t>& ms,
                            Check&& check) {
  for (const bool special : {false, true}) {
    for (const std::size_t pad : kEpiPads) {
      for (const std::size_t m : ms) {
        for (const std::size_t n : kEpiNs) {
          for (const std::size_t k : kEpiKs) check(m, n, k, pad, special);
        }
      }
    }
  }
}

// gemm_nn(bias, relu) == bias-seeded rows -> gemm_nn -> x > 0 ? x : +0.0.
TEST(SimdLayerKernelTest, GemmNnBiasReluMatchesUnfusedCompositionBitForBit) {
  BackendGuard guard;
  Rng rng(42);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for_each_epilogue_case(kEpiMs, [&](std::size_t m, std::size_t n,
                                      std::size_t k, std::size_t pad,
                                      bool special) {
      const std::size_t lda = k + pad, ldb = n + pad, ldc = n + pad;
      const auto a = fill_values(m * lda, special, rng);
      const auto b = fill_values(k * ldb, special, rng);
      const auto bias = fill_values(n, special, rng);
      const auto c0 = random_vec(m * ldc, rng);
      for (const bool relu : {false, true}) {
        auto want = c0;
        for (std::size_t i = 0; i < m; ++i) {
          std::copy(bias.begin(), bias.end(),
                    want.begin() + static_cast<std::ptrdiff_t>(i * ldc));
        }
        gemm_nn(m, n, k, a.data(), lda, b.data(), ldb, want.data(), ldc);
        for (std::size_t i = 0; relu && i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            double& x = want[i * ldc + j];
            x = x > 0.0 ? x : 0.0;
          }
        }
        auto got = c0;
        garble(got, m, n, ldc);
        gemm_nn(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc,
                bias.data(), relu);
        EXPECT_TRUE(same_bits(got, want))
            << backend_label(be) << " m=" << m << " n=" << n << " k=" << k
            << " pad=" << pad << (relu ? " relu" : "")
            << (special ? " special" : "");
      }
    });
  }
}

// gemm_nt(store, y) == gemm_nt(store) -> y <= 0 ? +0.0 : g.
TEST(SimdLayerKernelTest, GemmNtReluMaskMatchesUnfusedCompositionBitForBit) {
  BackendGuard guard;
  Rng rng(43);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for_each_epilogue_case(kEpiMs, [&](std::size_t m, std::size_t n,
                                      std::size_t k, std::size_t pad,
                                      bool special) {
      const std::size_t lda = k + pad, ldb = k + pad, ldc = n + pad;
      const auto a = fill_values(m * lda, special, rng);
      const auto b = fill_values(n * ldb, special, rng);
      // The mask is an activation output, laid out like C.
      const auto y = special_values(m * ldc, rng);
      const auto c0 = fill_values(m * ldc, special, rng);
      for (const Store store : {Store::kSet, Store::kAdd}) {
        auto want = c0;
        gemm_nt(m, n, k, a.data(), lda, b.data(), ldb, want.data(), ldc,
                store);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (y[i * ldc + j] <= 0.0) want[i * ldc + j] = 0.0;
          }
        }
        auto got = c0;
        if (store == Store::kSet) garble(got, m, n, ldc);
        gemm_nt(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc, store,
                y.data());
        EXPECT_TRUE(same_bits(got, want))
            << backend_label(be) << " m=" << m << " n=" << n << " k=" << k
            << " pad=" << pad << (store == Store::kSet ? " set" : " add")
            << (special ? " special" : "");
      }
    });
  }
}

// gemm_tn(store, sums) == gemm_tn(store) plus each column of B summed from
// +0.0 in ascending row order and stored like C. m == 0 leaves no tile to
// carry the sums.
TEST(SimdLayerKernelTest, GemmTnColumnSumsKeepRowOrderPerColumn) {
  BackendGuard guard;
  Rng rng(44);
  const double garbage = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::size_t> ms = kEpiMs;
  ms.insert(ms.begin(), 0);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for_each_epilogue_case(ms, [&](std::size_t m, std::size_t n,
                                   std::size_t k, std::size_t pad,
                                   bool special) {
      const std::size_t lda = m + pad, ldb = n + pad, ldc = n + pad;
      const auto a = fill_values(k * lda, special, rng);
      const auto b = fill_values(k * ldb, special, rng);
      const auto c0 = random_vec(m * ldc, rng);
      // One element past n checks that the sums stay in bounds.
      const auto sums0 = random_vec(n + 1, rng);
      for (const Store store : {Store::kSet, Store::kAdd}) {
        const bool set = store == Store::kSet;
        auto want = c0;
        auto want_sums = sums0;
        gemm_tn(m, n, k, a.data(), lda, b.data(), ldb, want.data(), ldc,
                store);
        for (std::size_t j = 0; j < n; ++j) {
          double s = 0.0;
          for (std::size_t p = 0; p < k; ++p) s += b[p * ldb + j];
          want_sums[j] = (set ? 0.0 : want_sums[j]) + s;
        }
        auto got = c0;
        auto got_sums = sums0;
        if (set) {
          garble(got, m, n, ldc);
          std::fill_n(got_sums.begin(), n, garbage);
        }
        gemm_tn(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc, store,
                got_sums.data());
        const std::string where = std::string(backend_label(be)) +
                                  " m=" + std::to_string(m) +
                                  " n=" + std::to_string(n) +
                                  " k=" + std::to_string(k) +
                                  " pad=" + std::to_string(pad) +
                                  (set ? " set" : " add") +
                                  (special ? " special" : "");
        EXPECT_TRUE(same_bits(got, want)) << "C " << where;
        // Two NaN addends: which payload survives is the operand order the
        // compiler picked for the vector add.
        EXPECT_TRUE(special ? same_value(got_sums, want_sums)
                            : same_bits(got_sums, want_sums))
            << "sums " << where;
      }
    });
  }
}

// ---- The train step's fast paths, with special values --------------------

// Leading-dimension padding: 0 takes the contiguous (vector) loads and
// stores of the 1-wide paths, 2 their strided scalar fallbacks.
const std::size_t kPads[] = {0, 2};

TEST(SimdLayerKernelTest, GemmNtK1MatchesDotModelWithSpecialValues) {
  BackendGuard guard;
  Rng rng(46);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const std::size_t pad : kPads) {
      for (const std::size_t m : {1u, 5u, 64u}) {
        for (const std::size_t n : {1u, 3u, 8u, 128u, 131u}) {
          const std::size_t k = 1, lda = k + pad, ldb = k + pad, ldc = n + pad;
          const auto a = special_values(m * lda, rng);
          const auto b = special_values(n * ldb, rng);
          const auto c0 = special_values(m * ldc, rng);
          auto got = c0;
          auto want = c0;
          gemm_nt(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
          gemm_nt_model(be, m, n, k, a.data(), lda, b.data(), ldb,
                        want.data(), ldc);
          EXPECT_TRUE(same_value(got, want))
              << backend_label(be) << " m=" << m << " n=" << n
              << " pad=" << pad;
        }
      }
    }
  }
}

TEST(SimdLayerKernelTest, GemmNnTnN1MatchChainModelWithSpecialValues) {
  BackendGuard guard;
  Rng rng(47);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const bool transposed_a : {false, true}) {
      for (const std::size_t pad : kPads) {
        for (const std::size_t m : {1u, 3u, 7u, 8u, 9u, 33u, 64u, 67u, 128u}) {
          for (const std::size_t k : {1u, 7u, 8u, 9u, 41u, 128u}) {
            const std::size_t n = 1;
            const std::size_t lda = (transposed_a ? m : k) + pad;
            const std::size_t ldb = n + pad, ldc = n + pad;
            const auto a = special_values((transposed_a ? k : m) * lda, rng);
            const auto b = special_values(k * ldb, rng);
            const auto c0 = special_values(m * ldc, rng);
            auto got = c0;
            auto want = c0;
            if (transposed_a) {
              gemm_tn(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
            } else {
              gemm_nn(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
            }
            broadcast_gemm_model(be, transposed_a, m, n, k, a.data(), lda,
                                 b.data(), ldb, want.data(), ldc);
            EXPECT_TRUE(same_value(got, want))
                << backend_label(be) << (transposed_a ? " tn" : " nn")
                << " m=" << m << " k=" << k << " pad=" << pad;
          }
        }
      }
    }
  }
}

TEST(SimdLayerKernelTest, GemmNnOneRowMatchesChainModelWithSpecialValues) {
  BackendGuard guard;
  Rng rng(48);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const std::size_t n : {8u, 16u, 32u, 127u, 128u, 129u, 200u, 256u}) {
      for (const std::size_t k : {1u, 9u, 41u, 128u}) {
        const std::size_t lda = k + 1, ldb = n + 3, ldc = n + 2;
        const auto a = special_values(lda, rng);
        const auto b = special_values(k * ldb, rng);
        const auto c0 = special_values(ldc, rng);
        auto got = c0;
        auto want = c0;
        gemm_nn(1, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
        broadcast_gemm_model(be, false, 1, n, k, a.data(), lda, b.data(), ldb,
                             want.data(), ldc);
        EXPECT_TRUE(same_value(got, want))
            << backend_label(be) << " n=" << n << " k=" << k;
      }
    }
  }
}

// Store::kSet against the composition it stands for: zero-fill the output,
// then accumulate. The kSet output starts as NaN garbage, which it must
// never read.
TEST(SimdLayerKernelTest, StoreSetEqualsZeroFillThenAccumulate) {
  BackendGuard guard;
  Rng rng(49);
  const double garbage = std::numeric_limits<double>::quiet_NaN();
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const bool special : {false, true}) {
      const auto fill = [&](std::size_t len) {
        return special ? special_values(len, rng) : random_vec(len, rng);
      };
      for (const std::size_t m : {1u, 4u, 8u, 9u, 41u, 64u, 128u}) {
        for (const std::size_t n : {1u, 3u, 8u, 16u, 17u, 32u, 128u}) {
          for (const std::size_t k : {1u, 7u, 64u}) {
            const std::size_t ldc = n + 2;
            std::vector<double> set(m * ldc, garbage), add(m * ldc, 0.0);
            // gemm_tn: A stored (k x m).
            const auto at = fill(k * (m + 1));
            const auto bt = fill(k * (n + 3));
            gemm_tn(m, n, k, at.data(), m + 1, bt.data(), n + 3, set.data(),
                    ldc, Store::kSet);
            gemm_tn(m, n, k, at.data(), m + 1, bt.data(), n + 3, add.data(),
                    ldc);
            for (std::size_t i = 0; i < m; ++i) {
              for (std::size_t j = n; j < ldc; ++j) set[i * ldc + j] = 0.0;
            }
            EXPECT_TRUE(same_value(set, add))
                << backend_label(be) << " tn m=" << m << " n=" << n
                << " k=" << k;
            // gemm_nt: B stored (n x k).
            std::fill(set.begin(), set.end(), garbage);
            std::fill(add.begin(), add.end(), 0.0);
            const auto an = fill(m * (k + 1));
            const auto bn = fill(n * (k + 3));
            gemm_nt(m, n, k, an.data(), k + 1, bn.data(), k + 3, set.data(),
                    ldc, Store::kSet);
            gemm_nt(m, n, k, an.data(), k + 1, bn.data(), k + 3, add.data(),
                    ldc);
            for (std::size_t i = 0; i < m; ++i) {
              for (std::size_t j = n; j < ldc; ++j) set[i * ldc + j] = 0.0;
            }
            EXPECT_TRUE(same_value(set, add))
                << backend_label(be) << " nt m=" << m << " n=" << n
                << " k=" << k;
          }
          // gemm_tn's column sums: m rows of n columns.
          const auto a = fill(m * (n + 1));
          std::vector<double> set(n, garbage), add(n, 0.0);
          std::vector<double> c_set(n), c_add(n);
          gemm_tn(1, n, m, a.data(), 1, a.data(), n + 1, c_set.data(), n,
                  Store::kSet, set.data());
          gemm_tn(1, n, m, a.data(), 1, a.data(), n + 1, c_add.data(), n,
                  Store::kAdd, add.data());
          EXPECT_TRUE(same_value(set, add))
              << backend_label(be) << " col_sums rows=" << m << " cols=" << n;
        }
      }
    }
  }
}

// Adam as the tier computes it, with the m / bc1 divide always taken: the
// vector body's explicit FMAs for the first n - n % lanes elements (lanes
// = 0 on the scalar tier), the scalar formula for the rest.
void adam_divide_model(std::size_t lanes, std::size_t n, double* value,
                       const double* grad, double* m, double* v, double scale,
                       double beta1, double beta2, double bc1, double bc2,
                       double lr, double eps) {
  const std::size_t vector_end = lanes == 0 ? 0 : n - n % lanes;
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i] * scale;
    if (i < vector_end) {
      m[i] = std::fma(beta1, m[i], (1.0 - beta1) * g);
      v[i] = std::fma(beta2, v[i], (1.0 - beta2) * (g * g));
    } else {
      m[i] = beta1 * m[i] + (1.0 - beta1) * g;
      v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    }
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    value[i] -= (lr * m_hat) / (std::sqrt(v_hat) + eps);
  }
}

TEST(SimdLayerKernelTest, AdamUnitBc1SkipsOnlyAnExactDivide) {
  BackendGuard guard;
  Rng rng(50);
  const double beta1 = 0.9, beta2 = 0.999, lr = 1e-3, eps = 1e-8;
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    const std::size_t lanes =
        be == Backend::kAvx512 ? 8 : (be == Backend::kAvx2 ? 4 : 0);
    // t = 537 is a served session's first critic step; t = 10 keeps the
    // divide.
    for (const double t : {10.0, 356.0, 537.0}) {
      const double bc1 = 1.0 - std::pow(beta1, t);
      const double bc2 = 1.0 - std::pow(beta2, t);
      for (const std::size_t n : kLengths) {
        for (const bool special : {false, true}) {
          const auto fill = [&] {
            return special ? special_values(n, rng) : random_vec(n, rng);
          };
          const auto value0 = fill();
          const auto grad = fill();
          const auto m0 = fill();
          auto v0 = fill();
          if (!special) {
            for (double& x : v0) x = std::abs(x);
          }
          auto value = value0, m = m0, v = v0;
          auto want_value = value0, want_m = m0, want_v = v0;
          adam_update(value.data(), grad.data(), m.data(), v.data(), n, 0.5,
                      beta1, beta2, bc1, bc2, lr, eps);
          adam_divide_model(lanes, n, want_value.data(), grad.data(),
                            want_m.data(), want_v.data(), 0.5, beta1, beta2,
                            bc1, bc2, lr, eps);
          EXPECT_TRUE(same_value(value, want_value) && same_value(m, want_m) &&
                      same_value(v, want_v))
              << backend_label(be) << " t=" << t << " bc1=" << bc1
              << " n=" << n << (special ? " special" : "");
        }
      }
    }
  }
}

TEST(SimdLayerKernelTest, SoftUpdateMatchesScalarFormulaBitForBit) {
  BackendGuard guard;
  Rng rng(51);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const double tau : {0.005, 0.3, 1.0, 0.0}) {
      for (const std::size_t n : kLengths) {
        for (const bool special : {false, true}) {
          const auto src =
              special ? special_values(n, rng) : random_vec(n, rng);
          const auto dst0 =
              special ? special_values(n + 1, rng) : random_vec(n + 1, rng);
          auto got = dst0;
          auto want = dst0;
          soft_update(got.data(), src.data(), n, tau);
          // Two products and a sum, each rounded: this file is compiled for
          // the baseline ISA, which has no FMA to contract them into.
          for (std::size_t i = 0; i < n; ++i) {
            want[i] = tau * src[i] + (1.0 - tau) * want[i];
          }
          // The element past n is never touched (the masked vector tail).
          EXPECT_TRUE(same_value(got, want))
              << backend_label(be) << " tau=" << tau << " n=" << n
              << (special ? " special" : "");
        }
      }
    }
  }
}

}  // namespace
}  // namespace deepcat::common::simd
