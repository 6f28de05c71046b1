#include "common/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#if (defined(__x86_64__) || defined(__amd64__)) && defined(__GNUC__) && \
    !defined(DEEPCAT_DISABLE_SIMD)
#define DEEPCAT_SIMD_X86 1
#include <immintrin.h>
#else
#define DEEPCAT_SIMD_X86 0
#endif

#if DEEPCAT_SIMD_X86
#define DEEPCAT_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define DEEPCAT_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma")))
#endif

namespace deepcat::common::simd {

namespace {

constexpr Backend min_backend(Backend a, Backend b) noexcept {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

Backend detect_cpu_backend() noexcept {
#if DEEPCAT_SIMD_X86
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return Backend::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend::kAvx2;
  }
#endif
  return Backend::kScalar;
}

// Environment cap, read once at static init: DEEPCAT_SIMD names the
// highest tier the process may use; the legacy DEEPCAT_FORCE_SCALAR pin
// still works. Unknown DEEPCAT_SIMD values leave the ladder uncapped.
Backend parse_env_cap() noexcept {
  Backend cap = Backend::kAvx512;
  if (const char* v = std::getenv("DEEPCAT_SIMD"); v != nullptr) {
    if (std::strcmp(v, "scalar") == 0) cap = Backend::kScalar;
    else if (std::strcmp(v, "avx2") == 0) cap = Backend::kAvx2;
    else if (std::strcmp(v, "avx512") == 0) cap = Backend::kAvx512;
  }
  if (const char* v = std::getenv("DEEPCAT_FORCE_SCALAR");
      v != nullptr && v[0] != '\0' && v[0] != '0') {
    cap = Backend::kScalar;
  }
  return cap;
}

// CPU capability and the env cap are fixed at static init; the
// programmatic cap (force_backend / force_scalar) layers on top and can
// only lower dispatch below g_max_backend.
const Backend g_detected_backend = detect_cpu_backend();
const Backend g_max_backend = min_backend(g_detected_backend, parse_env_cap());
Backend g_forced_cap = Backend::kAvx512;
GemmPath g_gemm_path = GemmPath::kAuto;

// The m/n/k floor where kAuto switches GEMM to the L2-tiled packed path.
constexpr std::size_t kPackedMinDim = 256;

// Dispatch accounting for the chunky kernels (GEMM family + fused Adam).
// Relaxed single atomics, not stripes: these kernels run for microseconds
// per call, so one fetch_add per call is noise.
std::atomic<unsigned long long> g_scalar_calls{0};
std::atomic<unsigned long long> g_avx2_calls{0};
std::atomic<unsigned long long> g_avx512_calls{0};
std::atomic<unsigned long long> g_packed_calls{0};

inline void count_dispatch(Backend be) noexcept {
  switch (be) {
    case Backend::kAvx512:
      g_avx512_calls.fetch_add(1, std::memory_order_relaxed);
      break;
    case Backend::kAvx2:
      g_avx2_calls.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      g_scalar_calls.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

inline void count_packed() noexcept {
  g_packed_calls.fetch_add(1, std::memory_order_relaxed);
}

// ---- scalar reference kernels ------------------------------------------

double dot_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double squared_distance_scalar(const double* a, const double* b,
                               std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double sum_scalar(const double* a, std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i];
  return s;
}

void axpy_scalar(double alpha, const double* x, double* y,
                 std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// kUnitBc1 drops the m / bc1 divide, exact when bc1 == 1.0 (x / 1.0 == x).
template <bool kUnitBc1>
void adam_update_scalar_impl(double* value, const double* grad, double* m,
                             double* v, std::size_t n, double scale,
                             double beta1, double beta2, double bc1,
                             double bc2, double lr, double eps) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i] * scale;
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    const double m_hat = kUnitBc1 ? m[i] : m[i] / bc1;
    const double v_hat = v[i] / bc2;
    value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

// Never inlined: the vector tiers call it for their tails, and inlined into
// a target("fma") function its mul + add pairs could be contracted.
__attribute__((noinline)) void adam_update_scalar(
    double* value, const double* grad, double* m, double* v, std::size_t n,
    double scale, double beta1, double beta2, double bc1, double bc2,
    double lr, double eps) noexcept {
  if (bc1 == 1.0) {
    adam_update_scalar_impl<true>(value, grad, m, v, n, scale, beta1, beta2,
                                  bc1, bc2, lr, eps);
  } else {
    adam_update_scalar_impl<false>(value, grad, m, v, n, scale, beta1, beta2,
                                   bc1, bc2, lr, eps);
  }
}

// Compiled for the baseline ISA, which has no FMA: both products and the sum
// round separately.
void soft_update_scalar(double* dst, const double* src, std::size_t n,
                        double tau) noexcept {
  const double keep = 1.0 - tau;
  for (std::size_t i = 0; i < n; ++i) dst[i] = tau * src[i] + keep * dst[i];
}

// What Store::kSet means on the paths that run the accumulating loops.
void zero_block(std::size_t m, std::size_t n, double* c,
                std::size_t ldc) noexcept {
  for (std::size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0);
}

void adam_update_clipped_scalar(const AdamTensor* tensors, std::size_t count,
                                double grad_clip, double beta1, double beta2,
                                double bc1, double bc2, double lr,
                                double eps) noexcept {
  double scale = 1.0;
  if (grad_clip > 0.0) {
    double sq = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      sq += dot_scalar(tensors[i].grad, tensors[i].grad, tensors[i].n);
    }
    const double norm = std::sqrt(sq);
    if (norm > grad_clip) scale = grad_clip / norm;
  }
  for (std::size_t i = 0; i < count; ++i) {
    adam_update_scalar(tensors[i].value, tensors[i].grad, tensors[i].m,
                       tensors[i].v, tensors[i].n, scale, beta1, beta2, bc1,
                       bc2, lr, eps);
  }
}

void gemm_nn_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) noexcept {
  // ikj order streams B and C rows; the zero-skip makes post-ReLU
  // (sparse) left operands cheap.
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * ldc;
    const double* arow = a + i * lda;
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = arow[p];
      if (aip == 0.0) continue;
      const double* brow = b + p * ldb;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

void gemm_tn_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) noexcept {
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a + p * lda;
    const double* brow = b + p * ldb;
    for (std::size_t i = 0; i < m; ++i) {
      const double api = arow[i];
      if (api == 0.0) continue;
      double* crow = c + i * ldc;
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

void gemm_nt_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] += dot_scalar(arow, b + j * ldb, k);
    }
  }
}

void relu_scalar(double* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : 0.0;
}

// The keep/drop decision is an all-ones/all-zeros mask ANDed onto g's bits,
// so the scalar tier is branch-free too.
void relu_grad_scalar(const double* g, const double* y, double* out,
                      std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t keep = 0 - static_cast<std::uint64_t>(!(y[i] <= 0.0));
    out[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(g[i]) & keep);
  }
}

template <bool kSet>
void col_sums_add_scalar(std::size_t rows, std::size_t cols, const double* a,
                         std::size_t lda, double* out) noexcept {
  for (std::size_t j = 0; j < cols; ++j) {
    double s = 0.0;
    for (std::size_t r = 0; r < rows; ++r) s += a[r * lda + j];
    out[j] = (kSet ? 0.0 : out[j]) + s;
  }
}

// Shared cosine epilogue — the identical scalar formula on every tier, so
// cross-tier divergence comes only from the three reductions feeding it.
inline double cosine_from_parts(double qq, double rr, double qr) noexcept {
  const double denom = std::sqrt(qq * rr);
  if (denom == 0.0) return 1.0;
  return 1.0 - qr / denom;
}

void squared_distances_scalar(const double* query, const double* rows,
                              std::size_t n_rows, std::size_t dim,
                              double* out) noexcept {
  for (std::size_t r = 0; r < n_rows; ++r) {
    out[r] = squared_distance_scalar(query, rows + r * dim, dim);
  }
}

void cosine_distances_scalar(const double* query, const double* rows,
                             std::size_t n_rows, std::size_t dim,
                             double* out) noexcept {
  const double qq = dot_scalar(query, query, dim);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * dim;
    out[r] = cosine_from_parts(qq, dot_scalar(row, row, dim),
                               dot_scalar(query, row, dim));
  }
}

#if DEEPCAT_SIMD_X86

// ---- AVX2+FMA kernels ---------------------------------------------------

DEEPCAT_TARGET_AVX2 inline double hsum(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

DEEPCAT_TARGET_AVX2 double dot_avx2(const double* a, const double* b,
                                    std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
  }
  double s = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) s = std::fma(a[i], b[i], s);
  return s;
}

DEEPCAT_TARGET_AVX2 double squared_distance_avx2(const double* a,
                                                 const double* b,
                                                 std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s = std::fma(d, d, s);
  }
  return s;
}

DEEPCAT_TARGET_AVX2 void squared_distances_avx2(const double* query,
                                                const double* rows,
                                                std::size_t n_rows,
                                                std::size_t dim,
                                                double* out) noexcept {
  for (std::size_t r = 0; r < n_rows; ++r) {
    out[r] = squared_distance_avx2(query, rows + r * dim, dim);
  }
}

DEEPCAT_TARGET_AVX2 void cosine_distances_avx2(const double* query,
                                               const double* rows,
                                               std::size_t n_rows,
                                               std::size_t dim,
                                               double* out) noexcept {
  const double qq = dot_avx2(query, query, dim);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * dim;
    out[r] = cosine_from_parts(qq, dot_avx2(row, row, dim),
                               dot_avx2(query, row, dim));
  }
}

DEEPCAT_TARGET_AVX2 double sum_avx2(const double* a, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(a + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i];
  return s;
}

DEEPCAT_TARGET_AVX2 void axpy_avx2(double alpha, const double* x, double* y,
                                   std::size_t n) noexcept {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(
        y + i + 4, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4),
                                   _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

// Keeps a product out of FMA contraction: GCC contracts a multiply feeding
// an add into one FMA even across vector intrinsics (its default is
// -ffp-contract=fast), which would round once where the scalar formula
// rounds twice. The empty asm makes the product opaque to that pass.
DEEPCAT_TARGET_AVX2 inline __m256d rounded(__m256d v) noexcept {
  __asm__("" : "+x"(v));
  return v;
}

// The output read of an accumulating kernel: the stored value, or +0.0
// under Store::kSet (the zero-filled output it stands for).
template <bool kSet>
inline double c_in(const double* p) noexcept {
  if constexpr (kSet) {
    return 0.0;
  } else {
    return *p;
  }
}

template <bool kSet>
DEEPCAT_TARGET_AVX2 inline __m256d c_in_avx2(const double* p) noexcept {
  if constexpr (kSet) {
    return _mm256_setzero_pd();
  } else {
    return _mm256_loadu_pd(p);
  }
}

// C(r) (+)= lane r of `s` for four rows ldc apart: the C += s epilogue of
// four per-row chains.
template <bool kSet>
DEEPCAT_TARGET_AVX2 inline void add_rows_avx2(__m256d s, double* c,
                                              std::size_t ldc) noexcept {
  if (ldc == 1) {
    _mm256_storeu_pd(c, _mm256_add_pd(c_in_avx2<kSet>(c), s));
    return;
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, s);
  for (std::size_t r = 0; r < 4; ++r) {
    c[r * ldc] = c_in<kSet>(c + r * ldc) + lane[r];
  }
}

template <bool kUnitBc1>
DEEPCAT_TARGET_AVX2 void adam_update_avx2_impl(
    double* value, const double* grad, double* m, double* v, std::size_t n,
    double scale, double beta1, double beta2, double bc1, double bc2,
    double lr, double eps) noexcept {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vb1 = _mm256_set1_pd(beta1);
  const __m256d vb2 = _mm256_set1_pd(beta2);
  const __m256d vomb1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d vomb2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d vbc1 = _mm256_set1_pd(bc1);
  const __m256d vbc2 = _mm256_set1_pd(bc2);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d veps = _mm256_set1_pd(eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(grad + i), vscale);
    const __m256d mi = _mm256_fmadd_pd(vb1, _mm256_loadu_pd(m + i),
                                       _mm256_mul_pd(vomb1, g));
    const __m256d vi = _mm256_fmadd_pd(vb2, _mm256_loadu_pd(v + i),
                                       _mm256_mul_pd(vomb2, _mm256_mul_pd(g, g)));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d m_hat = kUnitBc1 ? mi : _mm256_div_pd(mi, vbc1);
    const __m256d v_hat = _mm256_div_pd(vi, vbc2);
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), veps);
    const __m256d update =
        _mm256_div_pd(_mm256_mul_pd(vlr, m_hat), denom);
    _mm256_storeu_pd(value + i,
                     _mm256_sub_pd(_mm256_loadu_pd(value + i), update));
  }
  if (i < n) {
    adam_update_scalar(value + i, grad + i, m + i, v + i, n - i, scale, beta1,
                       beta2, bc1, bc2, lr, eps);
  }
}

DEEPCAT_TARGET_AVX2 void adam_update_avx2(double* value, const double* grad,
                                          double* m, double* v, std::size_t n,
                                          double scale, double beta1,
                                          double beta2, double bc1, double bc2,
                                          double lr, double eps) noexcept {
  if (bc1 == 1.0) {
    adam_update_avx2_impl<true>(value, grad, m, v, n, scale, beta1, beta2,
                                bc1, bc2, lr, eps);
  } else {
    adam_update_avx2_impl<false>(value, grad, m, v, n, scale, beta1, beta2,
                                 bc1, bc2, lr, eps);
  }
}

DEEPCAT_TARGET_AVX2 void adam_update_clipped_avx2(
    const AdamTensor* tensors, std::size_t count, double grad_clip,
    double beta1, double beta2, double bc1, double bc2, double lr,
    double eps) noexcept {
  double scale = 1.0;
  if (grad_clip > 0.0) {
    // Same per-tensor reduction (dot of grad with itself) in the same array
    // order as the old standalone sum_squares pass, so the clip scale is
    // bit-identical to the unfused composition.
    double sq = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      sq += dot_avx2(tensors[i].grad, tensors[i].grad, tensors[i].n);
    }
    const double norm = std::sqrt(sq);
    if (norm > grad_clip) scale = grad_clip / norm;
  }
  for (std::size_t i = 0; i < count; ++i) {
    adam_update_avx2(tensors[i].value, tensors[i].grad, tensors[i].m,
                     tensors[i].v, tensors[i].n, scale, beta1, beta2, bc1,
                     bc2, lr, eps);
  }
}

DEEPCAT_TARGET_AVX2 void soft_update_avx2(double* dst, const double* src,
                                          std::size_t n, double tau) noexcept {
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vkeep = _mm256_set1_pd(1.0 - tau);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s = rounded(_mm256_mul_pd(vtau, _mm256_loadu_pd(src + i)));
    const __m256d d = rounded(_mm256_mul_pd(vkeep, _mm256_loadu_pd(dst + i)));
    _mm256_storeu_pd(dst + i, _mm256_add_pd(s, d));
  }
  if (i < n) {
    const __m256i lanes = _mm256_set_epi64x(3, 2, 1, 0);
    const __m256i mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(n - i)), lanes);
    const __m256d s =
        rounded(_mm256_mul_pd(vtau, _mm256_maskload_pd(src + i, mask)));
    const __m256d d =
        rounded(_mm256_mul_pd(vkeep, _mm256_maskload_pd(dst + i, mask)));
    _mm256_maskstore_pd(dst + i, mask, _mm256_add_pd(s, d));
  }
}

// C(m x 1) += A(m x k) b for a row-major A — the n == 1 case. Lane r of an
// accumulator is row r's FMA chain from +0.0 in ascending p, added to C at
// the end: the arithmetic of the leftover-column loop below. 4x4 blocks of
// A are transposed in registers so one FMA advances four rows' chains; G
// accumulators (4G rows) are in flight at once.
template <std::size_t G>
DEEPCAT_TARGET_AVX2 void gemm_nn_n1_rows_avx2(std::size_t k, const double* a,
                                              std::size_t lda,
                                              const double* b, std::size_t ldb,
                                              double* c,
                                              std::size_t ldc) noexcept {
  __m256d acc[G];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) acc[g] = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const __m256d b0 = _mm256_set1_pd(b[(p + 0) * ldb]);
    const __m256d b1 = _mm256_set1_pd(b[(p + 1) * ldb]);
    const __m256d b2 = _mm256_set1_pd(b[(p + 2) * ldb]);
    const __m256d b3 = _mm256_set1_pd(b[(p + 3) * ldb]);
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      const double* ag = a + 4 * g * lda + p;
      const __m256d r0 = _mm256_loadu_pd(ag);
      const __m256d r1 = _mm256_loadu_pd(ag + lda);
      const __m256d r2 = _mm256_loadu_pd(ag + 2 * lda);
      const __m256d r3 = _mm256_loadu_pd(ag + 3 * lda);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      // Columns p, p + 1, p + 2, p + 3 of the four rows, in order.
      const __m256d c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
      const __m256d c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
      const __m256d c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
      const __m256d c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
      acc[g] = _mm256_fmadd_pd(c0, b0, acc[g]);
      acc[g] = _mm256_fmadd_pd(c1, b1, acc[g]);
      acc[g] = _mm256_fmadd_pd(c2, b2, acc[g]);
      acc[g] = _mm256_fmadd_pd(c3, b3, acc[g]);
    }
  }
  for (; p < k; ++p) {
    const __m256d bp = _mm256_set1_pd(b[p * ldb]);
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      const double* ag = a + 4 * g * lda + p;
      const __m256d col =
          _mm256_set_pd(ag[3 * lda], ag[2 * lda], ag[lda], ag[0]);
      acc[g] = _mm256_fmadd_pd(col, bp, acc[g]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) {
    add_rows_avx2<false>(acc[g], c + 4 * g * ldc, ldc);
  }
}

DEEPCAT_TARGET_AVX2 void gemm_nn_n1_avx2(std::size_t m, std::size_t k,
                                         const double* a, std::size_t lda,
                                         const double* b, std::size_t ldb,
                                         double* c, std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    gemm_nn_n1_rows_avx2<4>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i + 4 <= m; i += 4) {
    gemm_nn_n1_rows_avx2<1>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) s = std::fma(arow[p], b[p * ldb], s);
    c[i * ldc] += s;
  }
}

// 4x8 register-blocked micro-kernel: 8 accumulator registers stay resident
// across the whole k loop; A elements are broadcast, B rows are streamed.
DEEPCAT_TARGET_AVX2 void gemm_nn_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const double* a,
                                      std::size_t lda, const double* b,
                                      std::size_t ldb, double* c,
                                      std::size_t ldc) noexcept {
  if (n == 1) {
    gemm_nn_n1_avx2(m, k, a, lda, b, ldb, c, ldc);
    return;
  }
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + (i + 0) * lda;
    const double* a1 = a + (i + 1) * lda;
    const double* a2 = a + (i + 2) * lda;
    const double* a3 = a + (i + 3) * lda;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d c00 = _mm256_loadu_pd(c + (i + 0) * ldc + j);
      __m256d c01 = _mm256_loadu_pd(c + (i + 0) * ldc + j + 4);
      __m256d c10 = _mm256_loadu_pd(c + (i + 1) * ldc + j);
      __m256d c11 = _mm256_loadu_pd(c + (i + 1) * ldc + j + 4);
      __m256d c20 = _mm256_loadu_pd(c + (i + 2) * ldc + j);
      __m256d c21 = _mm256_loadu_pd(c + (i + 2) * ldc + j + 4);
      __m256d c30 = _mm256_loadu_pd(c + (i + 3) * ldc + j);
      __m256d c31 = _mm256_loadu_pd(c + (i + 3) * ldc + j + 4);
      for (std::size_t p = 0; p < k; ++p) {
        const double* brow = b + p * ldb + j;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        __m256d av = _mm256_set1_pd(a0[p]);
        c00 = _mm256_fmadd_pd(av, b0, c00);
        c01 = _mm256_fmadd_pd(av, b1, c01);
        av = _mm256_set1_pd(a1[p]);
        c10 = _mm256_fmadd_pd(av, b0, c10);
        c11 = _mm256_fmadd_pd(av, b1, c11);
        av = _mm256_set1_pd(a2[p]);
        c20 = _mm256_fmadd_pd(av, b0, c20);
        c21 = _mm256_fmadd_pd(av, b1, c21);
        av = _mm256_set1_pd(a3[p]);
        c30 = _mm256_fmadd_pd(av, b0, c30);
        c31 = _mm256_fmadd_pd(av, b1, c31);
      }
      _mm256_storeu_pd(c + (i + 0) * ldc + j, c00);
      _mm256_storeu_pd(c + (i + 0) * ldc + j + 4, c01);
      _mm256_storeu_pd(c + (i + 1) * ldc + j, c10);
      _mm256_storeu_pd(c + (i + 1) * ldc + j + 4, c11);
      _mm256_storeu_pd(c + (i + 2) * ldc + j, c20);
      _mm256_storeu_pd(c + (i + 2) * ldc + j + 4, c21);
      _mm256_storeu_pd(c + (i + 3) * ldc + j, c30);
      _mm256_storeu_pd(c + (i + 3) * ldc + j + 4, c31);
    }
    for (; j + 4 <= n; j += 4) {
      __m256d c0 = _mm256_loadu_pd(c + (i + 0) * ldc + j);
      __m256d c1 = _mm256_loadu_pd(c + (i + 1) * ldc + j);
      __m256d c2 = _mm256_loadu_pd(c + (i + 2) * ldc + j);
      __m256d c3 = _mm256_loadu_pd(c + (i + 3) * ldc + j);
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d bv = _mm256_loadu_pd(b + p * ldb + j);
        c0 = _mm256_fmadd_pd(_mm256_set1_pd(a0[p]), bv, c0);
        c1 = _mm256_fmadd_pd(_mm256_set1_pd(a1[p]), bv, c1);
        c2 = _mm256_fmadd_pd(_mm256_set1_pd(a2[p]), bv, c2);
        c3 = _mm256_fmadd_pd(_mm256_set1_pd(a3[p]), bv, c3);
      }
      _mm256_storeu_pd(c + (i + 0) * ldc + j, c0);
      _mm256_storeu_pd(c + (i + 1) * ldc + j, c1);
      _mm256_storeu_pd(c + (i + 2) * ldc + j, c2);
      _mm256_storeu_pd(c + (i + 3) * ldc + j, c3);
    }
    // Leftover columns: four independent per-row chains advance together,
    // so the FMA latency overlaps (each chain's order is unchanged).
    for (; j < n; ++j) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double bv = b[p * ldb + j];
        s0 = std::fma(a0[p], bv, s0);
        s1 = std::fma(a1[p], bv, s1);
        s2 = std::fma(a2[p], bv, s2);
        s3 = std::fma(a3[p], bv, s3);
      }
      c[(i + 0) * ldc + j] += s0;
      c[(i + 1) * ldc + j] += s1;
      c[(i + 2) * ldc + j] += s2;
      c[(i + 3) * ldc + j] += s3;
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    std::size_t j = 0;
    // A single row (the Twin-Q screen, act) has no neighbouring rows to
    // interleave, so eight accumulators over 32 columns hide the FMA
    // latency that two cannot; each column keeps its chain from C.
    for (; j + 32 <= n; j += 32) {
      __m256d acc[8];
#pragma GCC unroll 8
      for (std::size_t q = 0; q < 8; ++q) {
        acc[q] = _mm256_loadu_pd(crow + j + 4 * q);
      }
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(arow[p]);
        const double* brow = b + p * ldb + j;
#pragma GCC unroll 8
        for (std::size_t q = 0; q < 8; ++q) {
          acc[q] = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 4 * q), acc[q]);
        }
      }
#pragma GCC unroll 8
      for (std::size_t q = 0; q < 8; ++q) {
        _mm256_storeu_pd(crow + j + 4 * q, acc[q]);
      }
    }
    for (; j + 8 <= n; j += 8) {
      __m256d c0 = _mm256_loadu_pd(crow + j);
      __m256d c1 = _mm256_loadu_pd(crow + j + 4);
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(arow[p]);
        c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p * ldb + j), c0);
        c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p * ldb + j + 4), c1);
      }
      _mm256_storeu_pd(crow + j, c0);
      _mm256_storeu_pd(crow + j + 4, c1);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s = std::fma(arow[p], b[p * ldb + j], s);
      }
      crow[j] += s;
    }
  }
}

// C(m x 1) (+)= A^T b for a (k x m) A — the n == 1 case. Column p of A^T is
// row p of A, contiguous across output rows, so lane r of an accumulator
// is row r's FMA chain from +0.0 in ascending p with plain vector loads.
template <bool kSet>
DEEPCAT_TARGET_AVX2 void gemm_tn_n1_avx2(std::size_t m, std::size_t k,
                                         const double* a, std::size_t lda,
                                         const double* b, std::size_t ldb,
                                         double* c, std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 32 <= m; i += 32) {
    __m256d acc[8];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < 8; ++q) acc[q] = _mm256_setzero_pd();
    for (std::size_t p = 0; p < k; ++p) {
      const __m256d bp = _mm256_set1_pd(b[p * ldb]);
      const double* ap = a + p * lda + i;
#pragma GCC unroll 8
      for (std::size_t q = 0; q < 8; ++q) {
        acc[q] = _mm256_fmadd_pd(_mm256_loadu_pd(ap + 4 * q), bp, acc[q]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t q = 0; q < 8; ++q) {
      add_rows_avx2<kSet>(acc[q], c + (i + 4 * q) * ldc, ldc);
    }
  }
  for (; i + 4 <= m; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t p = 0; p < k; ++p) {
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + p * lda + i),
                            _mm256_set1_pd(b[p * ldb]), acc);
    }
    add_rows_avx2<kSet>(acc, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      s = std::fma(a[p * lda + i], b[p * ldb], s);
    }
    c[i * ldc] = c_in<kSet>(c + i * ldc) + s;
  }
}

// Same 4x8 block shape as gemm_nn; only the A access changes (column i of
// the stored (k x m) A, i.e. strided broadcasts).
template <bool kSet>
DEEPCAT_TARGET_AVX2 void gemm_tn_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const double* a,
                                      std::size_t lda, const double* b,
                                      std::size_t ldb, double* c,
                                      std::size_t ldc) noexcept {
  if (n == 1) {
    gemm_tn_n1_avx2<kSet>(m, k, a, lda, b, ldb, c, ldc);
    return;
  }
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d c00 = c_in_avx2<kSet>(c + (i + 0) * ldc + j);
      __m256d c01 = c_in_avx2<kSet>(c + (i + 0) * ldc + j + 4);
      __m256d c10 = c_in_avx2<kSet>(c + (i + 1) * ldc + j);
      __m256d c11 = c_in_avx2<kSet>(c + (i + 1) * ldc + j + 4);
      __m256d c20 = c_in_avx2<kSet>(c + (i + 2) * ldc + j);
      __m256d c21 = c_in_avx2<kSet>(c + (i + 2) * ldc + j + 4);
      __m256d c30 = c_in_avx2<kSet>(c + (i + 3) * ldc + j);
      __m256d c31 = c_in_avx2<kSet>(c + (i + 3) * ldc + j + 4);
      for (std::size_t p = 0; p < k; ++p) {
        const double* acol = a + p * lda + i;
        const double* brow = b + p * ldb + j;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        __m256d av = _mm256_set1_pd(acol[0]);
        c00 = _mm256_fmadd_pd(av, b0, c00);
        c01 = _mm256_fmadd_pd(av, b1, c01);
        av = _mm256_set1_pd(acol[1]);
        c10 = _mm256_fmadd_pd(av, b0, c10);
        c11 = _mm256_fmadd_pd(av, b1, c11);
        av = _mm256_set1_pd(acol[2]);
        c20 = _mm256_fmadd_pd(av, b0, c20);
        c21 = _mm256_fmadd_pd(av, b1, c21);
        av = _mm256_set1_pd(acol[3]);
        c30 = _mm256_fmadd_pd(av, b0, c30);
        c31 = _mm256_fmadd_pd(av, b1, c31);
      }
      _mm256_storeu_pd(c + (i + 0) * ldc + j, c00);
      _mm256_storeu_pd(c + (i + 0) * ldc + j + 4, c01);
      _mm256_storeu_pd(c + (i + 1) * ldc + j, c10);
      _mm256_storeu_pd(c + (i + 1) * ldc + j + 4, c11);
      _mm256_storeu_pd(c + (i + 2) * ldc + j, c20);
      _mm256_storeu_pd(c + (i + 2) * ldc + j + 4, c21);
      _mm256_storeu_pd(c + (i + 3) * ldc + j, c30);
      _mm256_storeu_pd(c + (i + 3) * ldc + j + 4, c31);
    }
    for (; j < n; ++j) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double* acol = a + p * lda + i;
        const double bv = b[p * ldb + j];
        s0 = std::fma(acol[0], bv, s0);
        s1 = std::fma(acol[1], bv, s1);
        s2 = std::fma(acol[2], bv, s2);
        s3 = std::fma(acol[3], bv, s3);
      }
      double* cj = c + i * ldc + j;
      cj[0] = c_in<kSet>(cj) + s0;
      cj[ldc] = c_in<kSet>(cj + ldc) + s1;
      cj[2 * ldc] = c_in<kSet>(cj + 2 * ldc) + s2;
      cj[3 * ldc] = c_in<kSet>(cj + 3 * ldc) + s3;
    }
  }
  for (; i < m; ++i) {
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d c0 = c_in_avx2<kSet>(c + i * ldc + j);
      __m256d c1 = c_in_avx2<kSet>(c + i * ldc + j + 4);
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(a[p * lda + i]);
        c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p * ldb + j), c0);
        c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p * ldb + j + 4), c1);
      }
      _mm256_storeu_pd(c + i * ldc + j, c0);
      _mm256_storeu_pd(c + i * ldc + j + 4, c1);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s = std::fma(a[p * lda + i], b[p * ldb + j], s);
      }
      c[i * ldc + j] = c_in<kSet>(c + i * ldc + j) + s;
    }
  }
}

// One output of the 1x4 dot kernel: a single vector accumulator over p in
// 4-lane steps, hsum, then the scalar tail in ascending p. The blocked
// kernel below keeps exactly this per-output arithmetic.
template <bool kSet>
DEEPCAT_TARGET_AVX2 void gemm_nt_row_avx2(const double* arow, std::size_t n,
                                          std::size_t k, const double* b,
                                          std::size_t ldb,
                                          double* crow) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const double* b0 = b + (j + 0) * ldb;
    const double* b1 = b + (j + 1) * ldb;
    const double* b2 = b + (j + 2) * ldb;
    const double* b3 = b + (j + 3) * ldb;
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
    std::size_t p = 0;
    for (; p + 4 <= k; p += 4) {
      const __m256d av = _mm256_loadu_pd(arow + p);
      acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b0 + p), acc0);
      acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b1 + p), acc1);
      acc2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b2 + p), acc2);
      acc3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b3 + p), acc3);
    }
    double s0 = hsum(acc0), s1 = hsum(acc1), s2 = hsum(acc2),
           s3 = hsum(acc3);
    for (; p < k; ++p) {
      const double av = arow[p];
      s0 = std::fma(av, b0[p], s0);
      s1 = std::fma(av, b1[p], s1);
      s2 = std::fma(av, b2[p], s2);
      s3 = std::fma(av, b3[p], s3);
    }
    crow[j + 0] = c_in<kSet>(crow + j + 0) + s0;
    crow[j + 1] = c_in<kSet>(crow + j + 1) + s1;
    crow[j + 2] = c_in<kSet>(crow + j + 2) + s2;
    crow[j + 3] = c_in<kSet>(crow + j + 3) + s3;
  }
  for (; j < n; ++j) {
    crow[j] = c_in<kSet>(crow + j) + dot_avx2(arow, b + j * ldb, k);
  }
}

// C (+)= A * B^T at k == 1: every path of gemm_nt_avx2 computes a single
// product as fma(a, b, +0.0) (an accumulator or hsum of +0.0 plus the FMA
// tail) and adds it to C, here vectorized across the columns.
template <bool kSet>
DEEPCAT_TARGET_AVX2 void gemm_nt_k1_avx2(std::size_t m, std::size_t n,
                                         const double* a, std::size_t lda,
                                         const double* b, std::size_t ldb,
                                         double* c, std::size_t ldc) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t i = 0; i < m; ++i) {
    const double ai = a[i * lda];
    const __m256d av = _mm256_set1_pd(ai);
    double* crow = c + i * ldc;
    std::size_t j = 0;
    if (ldb == 1) {
      for (; j + 4 <= n; j += 4) {
        const __m256d prod = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + j), zero);
        _mm256_storeu_pd(crow + j,
                         _mm256_add_pd(c_in_avx2<kSet>(crow + j), prod));
      }
    }
    for (; j < n; ++j) {
      crow[j] = c_in<kSet>(crow + j) + std::fma(ai, b[j * ldb], 0.0);
    }
  }
}

// 4 A rows x 2 B rows per tile: 8 accumulators + 4 A + 2 B vectors fit the
// 16 ymm registers, and each load feeds 2 or 4 FMAs (the 1x4 kernel needs
// 5 loads per 4 FMAs and re-streams B from L2 for every A row).
template <bool kSet>
DEEPCAT_TARGET_AVX2 void gemm_nt_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const double* a,
                                      std::size_t lda, const double* b,
                                      std::size_t ldb, double* c,
                                      std::size_t ldc) noexcept {
  if (k == 1) {
    gemm_nt_k1_avx2<kSet>(m, n, a, lda, b, ldb, c, ldc);
    return;
  }
  const std::size_t n4 = n - n % 4;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + (i + 0) * lda;
    const double* a1 = a + (i + 1) * lda;
    const double* a2 = a + (i + 2) * lda;
    const double* a3 = a + (i + 3) * lda;
    double* c0 = c + (i + 0) * ldc;
    double* c1 = c + (i + 1) * ldc;
    double* c2 = c + (i + 2) * ldc;
    double* c3 = c + (i + 3) * ldc;
    for (std::size_t j = 0; j < n4; j += 2) {
      const double* b0 = b + (j + 0) * ldb;
      const double* b1 = b + (j + 1) * ldb;
      __m256d s00 = _mm256_setzero_pd(), s01 = _mm256_setzero_pd();
      __m256d s10 = _mm256_setzero_pd(), s11 = _mm256_setzero_pd();
      __m256d s20 = _mm256_setzero_pd(), s21 = _mm256_setzero_pd();
      __m256d s30 = _mm256_setzero_pd(), s31 = _mm256_setzero_pd();
      std::size_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const __m256d bv0 = _mm256_loadu_pd(b0 + p);
        const __m256d bv1 = _mm256_loadu_pd(b1 + p);
        __m256d av = _mm256_loadu_pd(a0 + p);
        s00 = _mm256_fmadd_pd(av, bv0, s00);
        s01 = _mm256_fmadd_pd(av, bv1, s01);
        av = _mm256_loadu_pd(a1 + p);
        s10 = _mm256_fmadd_pd(av, bv0, s10);
        s11 = _mm256_fmadd_pd(av, bv1, s11);
        av = _mm256_loadu_pd(a2 + p);
        s20 = _mm256_fmadd_pd(av, bv0, s20);
        s21 = _mm256_fmadd_pd(av, bv1, s21);
        av = _mm256_loadu_pd(a3 + p);
        s30 = _mm256_fmadd_pd(av, bv0, s30);
        s31 = _mm256_fmadd_pd(av, bv1, s31);
      }
      double t00 = hsum(s00), t01 = hsum(s01), t10 = hsum(s10),
             t11 = hsum(s11), t20 = hsum(s20), t21 = hsum(s21),
             t30 = hsum(s30), t31 = hsum(s31);
      for (; p < k; ++p) {
        const double bs0 = b0[p], bs1 = b1[p];
        t00 = std::fma(a0[p], bs0, t00);
        t01 = std::fma(a0[p], bs1, t01);
        t10 = std::fma(a1[p], bs0, t10);
        t11 = std::fma(a1[p], bs1, t11);
        t20 = std::fma(a2[p], bs0, t20);
        t21 = std::fma(a2[p], bs1, t21);
        t30 = std::fma(a3[p], bs0, t30);
        t31 = std::fma(a3[p], bs1, t31);
      }
      c0[j] = c_in<kSet>(c0 + j) + t00;
      c0[j + 1] = c_in<kSet>(c0 + j + 1) + t01;
      c1[j] = c_in<kSet>(c1 + j) + t10;
      c1[j + 1] = c_in<kSet>(c1 + j + 1) + t11;
      c2[j] = c_in<kSet>(c2 + j) + t20;
      c2[j + 1] = c_in<kSet>(c2 + j + 1) + t21;
      c3[j] = c_in<kSet>(c3 + j) + t30;
      c3[j + 1] = c_in<kSet>(c3 + j + 1) + t31;
    }
    for (std::size_t j = n4; j < n; ++j) {
      const double* bj = b + j * ldb;
      c0[j] = c_in<kSet>(c0 + j) + dot_avx2(a0, bj, k);
      c1[j] = c_in<kSet>(c1 + j) + dot_avx2(a1, bj, k);
      c2[j] = c_in<kSet>(c2 + j) + dot_avx2(a2, bj, k);
      c3[j] = c_in<kSet>(c3 + j) + dot_avx2(a3, bj, k);
    }
  }
  for (; i < m; ++i) {
    gemm_nt_row_avx2<kSet>(a + i * lda, n, k, b, ldb, c + i * ldc);
  }
}

// max(x, 0) returns its second operand (+0.0) for NaN and for either zero,
// which is exactly x > 0 ? x : +0.0.
DEEPCAT_TARGET_AVX2 void relu_avx2(double* x, std::size_t n) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_max_pd(_mm256_loadu_pd(x + i), zero));
  }
  relu_scalar(x + i, n - i);
}

// NLE_UQ is !(y <= 0) with NaN true: the mask keeps g exactly where the
// scalar formula does, and ANDing with an all-zeros lane writes +0.0.
DEEPCAT_TARGET_AVX2 void relu_grad_avx2(const double* g, const double* y,
                                        double* out, std::size_t n) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d keep =
        _mm256_cmp_pd(_mm256_loadu_pd(y + i), zero, _CMP_NLE_UQ);
    _mm256_storeu_pd(out + i, _mm256_and_pd(keep, _mm256_loadu_pd(g + i)));
  }
  relu_grad_scalar(g + i, y + i, out + i, n - i);
}

template <bool kSet>
DEEPCAT_TARGET_AVX2 void col_sums_add_avx2(std::size_t rows, std::size_t cols,
                                           const double* a, std::size_t lda,
                                           double* out) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    __m256d s = _mm256_setzero_pd();
    for (std::size_t r = 0; r < rows; ++r) {
      s = _mm256_add_pd(s, _mm256_loadu_pd(a + r * lda + j));
    }
    _mm256_storeu_pd(out + j, _mm256_add_pd(c_in_avx2<kSet>(out + j), s));
  }
  col_sums_add_scalar<kSet>(rows, cols - j, a + j, lda, out + j);
}

// ---- AVX-512 kernels -----------------------------------------------------
// Same shapes as the AVX2 tier, twice the lane width. Broadcast-style GEMM
// keeps per-element ascending-k FMA chains (bit-compatible with the AVX2
// tier); the dot-family reductions use wider accumulator trees and meet
// the 1e-12 contract only.

DEEPCAT_TARGET_AVX512 double dot_avx512(const double* a, const double* b,
                                        std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd(), acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i),
                           _mm512_loadu_pd(b + i), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
    acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 16),
                           _mm512_loadu_pd(b + i + 16), acc2);
    acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 24),
                           _mm512_loadu_pd(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i),
                           _mm512_loadu_pd(b + i), acc0);
  }
  double s = _mm512_reduce_add_pd(_mm512_add_pd(
      _mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3)));
  for (; i < n; ++i) s = std::fma(a[i], b[i], s);
  return s;
}

DEEPCAT_TARGET_AVX512 double squared_distance_avx512(const double* a,
                                                     const double* b,
                                                     std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 =
        _mm512_sub_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    const __m512d d1 =
        _mm512_sub_pd(_mm512_loadu_pd(a + i + 8), _mm512_loadu_pd(b + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
  }
  double s = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s = std::fma(d, d, s);
  }
  return s;
}

DEEPCAT_TARGET_AVX512 void squared_distances_avx512(const double* query,
                                                    const double* rows,
                                                    std::size_t n_rows,
                                                    std::size_t dim,
                                                    double* out) noexcept {
  for (std::size_t r = 0; r < n_rows; ++r) {
    out[r] = squared_distance_avx512(query, rows + r * dim, dim);
  }
}

DEEPCAT_TARGET_AVX512 void cosine_distances_avx512(const double* query,
                                                   const double* rows,
                                                   std::size_t n_rows,
                                                   std::size_t dim,
                                                   double* out) noexcept {
  const double qq = dot_avx512(query, query, dim);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * dim;
    out[r] = cosine_from_parts(qq, dot_avx512(row, row, dim),
                               dot_avx512(query, row, dim));
  }
}

DEEPCAT_TARGET_AVX512 double sum_avx512(const double* a,
                                        std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(a + i));
    acc1 = _mm512_add_pd(acc1, _mm512_loadu_pd(a + i + 8));
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(a + i));
  }
  double s = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i];
  return s;
}

DEEPCAT_TARGET_AVX512 void axpy_avx512(double alpha, const double* x,
                                       double* y, std::size_t n) noexcept {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
    _mm512_storeu_pd(
        y + i + 8, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i + 8),
                                   _mm512_loadu_pd(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

DEEPCAT_TARGET_AVX512 inline __m512d rounded(__m512d v) noexcept {
  __asm__("" : "+v"(v));
  return v;
}

template <bool kSet>
DEEPCAT_TARGET_AVX512 inline __m512d c_in_avx512(const double* p) noexcept {
  if constexpr (kSet) {
    return _mm512_setzero_pd();
  } else {
    return _mm512_loadu_pd(p);
  }
}

// C(r) (+)= lane r of `s` for eight rows ldc apart.
template <bool kSet>
DEEPCAT_TARGET_AVX512 inline void add_rows_avx512(__m512d s, double* c,
                                                  std::size_t ldc) noexcept {
  if (ldc == 1) {
    _mm512_storeu_pd(c, _mm512_add_pd(c_in_avx512<kSet>(c), s));
    return;
  }
  alignas(64) double lane[8];
  _mm512_store_pd(lane, s);
  for (std::size_t r = 0; r < 8; ++r) {
    c[r * ldc] = c_in<kSet>(c + r * ldc) + lane[r];
  }
}

template <bool kUnitBc1>
DEEPCAT_TARGET_AVX512 void adam_update_avx512_impl(
    double* value, const double* grad, double* m, double* v, std::size_t n,
    double scale, double beta1, double beta2, double bc1, double bc2,
    double lr, double eps) noexcept {
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vb1 = _mm512_set1_pd(beta1);
  const __m512d vb2 = _mm512_set1_pd(beta2);
  const __m512d vomb1 = _mm512_set1_pd(1.0 - beta1);
  const __m512d vomb2 = _mm512_set1_pd(1.0 - beta2);
  const __m512d vbc1 = _mm512_set1_pd(bc1);
  const __m512d vbc2 = _mm512_set1_pd(bc2);
  const __m512d vlr = _mm512_set1_pd(lr);
  const __m512d veps = _mm512_set1_pd(eps);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d g = _mm512_mul_pd(_mm512_loadu_pd(grad + i), vscale);
    const __m512d mi = _mm512_fmadd_pd(vb1, _mm512_loadu_pd(m + i),
                                       _mm512_mul_pd(vomb1, g));
    const __m512d vi = _mm512_fmadd_pd(
        vb2, _mm512_loadu_pd(v + i),
        _mm512_mul_pd(vomb2, _mm512_mul_pd(g, g)));
    _mm512_storeu_pd(m + i, mi);
    _mm512_storeu_pd(v + i, vi);
    const __m512d m_hat = kUnitBc1 ? mi : _mm512_div_pd(mi, vbc1);
    const __m512d v_hat = _mm512_div_pd(vi, vbc2);
    const __m512d denom = _mm512_add_pd(_mm512_sqrt_pd(v_hat), veps);
    const __m512d update = _mm512_div_pd(_mm512_mul_pd(vlr, m_hat), denom);
    _mm512_storeu_pd(value + i,
                     _mm512_sub_pd(_mm512_loadu_pd(value + i), update));
  }
  if (i < n) {
    adam_update_scalar(value + i, grad + i, m + i, v + i, n - i, scale, beta1,
                       beta2, bc1, bc2, lr, eps);
  }
}

DEEPCAT_TARGET_AVX512 void adam_update_avx512(
    double* value, const double* grad, double* m, double* v, std::size_t n,
    double scale, double beta1, double beta2, double bc1, double bc2,
    double lr, double eps) noexcept {
  if (bc1 == 1.0) {
    adam_update_avx512_impl<true>(value, grad, m, v, n, scale, beta1, beta2,
                                  bc1, bc2, lr, eps);
  } else {
    adam_update_avx512_impl<false>(value, grad, m, v, n, scale, beta1, beta2,
                                   bc1, bc2, lr, eps);
  }
}

DEEPCAT_TARGET_AVX512 void adam_update_clipped_avx512(
    const AdamTensor* tensors, std::size_t count, double grad_clip,
    double beta1, double beta2, double bc1, double bc2, double lr,
    double eps) noexcept {
  double scale = 1.0;
  if (grad_clip > 0.0) {
    double sq = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      sq += dot_avx512(tensors[i].grad, tensors[i].grad, tensors[i].n);
    }
    const double norm = std::sqrt(sq);
    if (norm > grad_clip) scale = grad_clip / norm;
  }
  for (std::size_t i = 0; i < count; ++i) {
    adam_update_avx512(tensors[i].value, tensors[i].grad, tensors[i].m,
                       tensors[i].v, tensors[i].n, scale, beta1, beta2, bc1,
                       bc2, lr, eps);
  }
}

DEEPCAT_TARGET_AVX512 void soft_update_avx512(double* dst, const double* src,
                                              std::size_t n,
                                              double tau) noexcept {
  const __m512d vtau = _mm512_set1_pd(tau);
  const __m512d vkeep = _mm512_set1_pd(1.0 - tau);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d s = rounded(_mm512_mul_pd(vtau, _mm512_loadu_pd(src + i)));
    const __m512d d = rounded(_mm512_mul_pd(vkeep, _mm512_loadu_pd(dst + i)));
    _mm512_storeu_pd(dst + i, _mm512_add_pd(s, d));
  }
  if (i < n) {
    const auto mask = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d s =
        rounded(_mm512_mul_pd(vtau, _mm512_maskz_loadu_pd(mask, src + i)));
    const __m512d d =
        rounded(_mm512_mul_pd(vkeep, _mm512_maskz_loadu_pd(mask, dst + i)));
    _mm512_mask_storeu_pd(dst + i, mask, _mm512_add_pd(s, d));
  }
}

// In-register transpose of an 8x8 block: on return, lane r of t[q] is
// lane q of the input t[r].
DEEPCAT_TARGET_AVX512 inline void transpose8x8_avx512(__m512d t[8]) noexcept {
  // Pairs: u[2h] lanes (r0[0], r1[0], r0[2], r1[2], ...), u[2h+1] the odd
  // columns, for row pairs (2h, 2h+1).
  __m512d u[8];
#pragma GCC unroll 4
  for (int h = 0; h < 4; ++h) {
    u[2 * h] = _mm512_unpacklo_pd(t[2 * h], t[2 * h + 1]);
    u[2 * h + 1] = _mm512_unpackhi_pd(t[2 * h], t[2 * h + 1]);
  }
  // 128-bit lanes: v holds columns {0,2} / {4,6} (even) and {1,3} / {5,7}
  // (odd) of rows 0-3 and 4-7.
#pragma GCC unroll 2
  for (int odd = 0; odd < 2; ++odd) {
    const __m512d lo03 =
        _mm512_shuffle_f64x2(u[odd], u[2 + odd], _MM_SHUFFLE(1, 0, 1, 0));
    const __m512d hi03 =
        _mm512_shuffle_f64x2(u[odd], u[2 + odd], _MM_SHUFFLE(3, 2, 3, 2));
    const __m512d lo47 =
        _mm512_shuffle_f64x2(u[4 + odd], u[6 + odd], _MM_SHUFFLE(1, 0, 1, 0));
    const __m512d hi47 =
        _mm512_shuffle_f64x2(u[4 + odd], u[6 + odd], _MM_SHUFFLE(3, 2, 3, 2));
    t[0 + odd] = _mm512_shuffle_f64x2(lo03, lo47, _MM_SHUFFLE(2, 0, 2, 0));
    t[2 + odd] = _mm512_shuffle_f64x2(lo03, lo47, _MM_SHUFFLE(3, 1, 3, 1));
    t[4 + odd] = _mm512_shuffle_f64x2(hi03, hi47, _MM_SHUFFLE(2, 0, 2, 0));
    t[6 + odd] = _mm512_shuffle_f64x2(hi03, hi47, _MM_SHUFFLE(3, 1, 3, 1));
  }
}

// C(m x 1) += A(m x k) b for a row-major A — the n == 1 case. Lane r of an
// accumulator is row r's FMA chain from +0.0 in ascending p, added to C at
// the end: the arithmetic of the leftover-column loop below. 8x8 blocks of
// A are transposed in registers so one FMA advances eight rows' chains; G
// accumulators (8G rows) are in flight at once.
template <std::size_t G>
DEEPCAT_TARGET_AVX512 void gemm_nn_n1_rows_avx512(
    std::size_t k, const double* a, std::size_t lda, const double* b,
    std::size_t ldb, double* c, std::size_t ldc) noexcept {
  __m512d acc[G];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) acc[g] = _mm512_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    __m512d bq[8];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < 8; ++q) {
      bq[q] = _mm512_set1_pd(b[(p + q) * ldb]);
    }
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      const double* ag = a + 8 * g * lda + p;
      __m512d t[8];
#pragma GCC unroll 8
      for (std::size_t r = 0; r < 8; ++r) t[r] = _mm512_loadu_pd(ag + r * lda);
      transpose8x8_avx512(t);
#pragma GCC unroll 8
      for (std::size_t q = 0; q < 8; ++q) {
        acc[g] = _mm512_fmadd_pd(t[q], bq[q], acc[g]);
      }
    }
  }
  if (p < k) {
    const __m512i rows = _mm512_set_epi64(
        static_cast<long long>(7 * lda), static_cast<long long>(6 * lda),
        static_cast<long long>(5 * lda), static_cast<long long>(4 * lda),
        static_cast<long long>(3 * lda), static_cast<long long>(2 * lda),
        static_cast<long long>(lda), 0);
    for (; p < k; ++p) {
      const __m512d bp = _mm512_set1_pd(b[p * ldb]);
#pragma GCC unroll 4
      for (std::size_t g = 0; g < G; ++g) {
        const double* ag = a + 8 * g * lda + p;
        acc[g] = _mm512_fmadd_pd(_mm512_i64gather_pd(rows, ag, 8), bp, acc[g]);
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) {
    add_rows_avx512<false>(acc[g], c + 8 * g * ldc,
                           ldc);
  }
}

DEEPCAT_TARGET_AVX512 void gemm_nn_n1_avx512(std::size_t m, std::size_t k,
                                             const double* a, std::size_t lda,
                                             const double* b, std::size_t ldb,
                                             double* c,
                                             std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 32 <= m; i += 32) {
    gemm_nn_n1_rows_avx512<4>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i + 8 <= m; i += 8) {
    gemm_nn_n1_rows_avx512<1>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) s = std::fma(arow[p], b[p * ldb], s);
    c[i * ldc] += s;
  }
}

// 8 rows x 16 columns per tile over the full 16-column blocks of every
// 8-row band: 16 zmm accumulators, where the 4x16 tiles below hold 8 —
// too few to cover the FMA latency. Each C element keeps its one FMA
// chain from the stored value in ascending p, so banded outputs are
// bit-identical to the 4x16 tiles. A's element (i, p) is a[i*ars + p*acs],
// which serves gemm_nn (ars = lda, acs = 1) and gemm_tn (ars = 1,
// acs = lda). Returns the number of rows banded.
template <bool kSet>
DEEPCAT_TARGET_AVX512 std::size_t gemm_bands_8x16_avx512(
    std::size_t m, std::size_t n, std::size_t k, const double* a,
    std::size_t ars, std::size_t acs, const double* b, std::size_t ldb,
    double* c, std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    for (std::size_t j = 0; j + 16 <= n; j += 16) {
      __m512d acc[8][2];
#pragma GCC unroll 8
      for (std::size_t r = 0; r < 8; ++r) {
        acc[r][0] = c_in_avx512<kSet>(c + (i + r) * ldc + j);
        acc[r][1] = c_in_avx512<kSet>(c + (i + r) * ldc + j + 8);
      }
      for (std::size_t p = 0; p < k; ++p) {
        const double* brow = b + p * ldb + j;
        const __m512d b0 = _mm512_loadu_pd(brow);
        const __m512d b1 = _mm512_loadu_pd(brow + 8);
        const double* ap = a + i * ars + p * acs;
#pragma GCC unroll 8
        for (std::size_t r = 0; r < 8; ++r) {
          const __m512d av = _mm512_set1_pd(ap[r * ars]);
          acc[r][0] = _mm512_fmadd_pd(av, b0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_pd(av, b1, acc[r][1]);
        }
      }
#pragma GCC unroll 8
      for (std::size_t r = 0; r < 8; ++r) {
        _mm512_storeu_pd(c + (i + r) * ldc + j, acc[r][0]);
        _mm512_storeu_pd(c + (i + r) * ldc + j + 8, acc[r][1]);
      }
    }
  }
  return i;
}

// 4x16 register-blocked micro-kernel: the AVX2 4x8 tile widened to two
// zmm columns per row — 8 resident accumulators, double the flops per
// broadcast. It covers what the 8x16 bands leave: their last n % 16
// columns, and rows past the last full band.
DEEPCAT_TARGET_AVX512 void gemm_nn_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, double* c,
                                          std::size_t ldc) noexcept {
  if (n == 1) {
    gemm_nn_n1_avx512(m, k, a, lda, b, ldb, c, ldc);
    return;
  }
  const std::size_t banded =
      gemm_bands_8x16_avx512<false>(m, n, k, a, lda, 1, b, ldb, c, ldc);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + (i + 0) * lda;
    const double* a1 = a + (i + 1) * lda;
    const double* a2 = a + (i + 2) * lda;
    const double* a3 = a + (i + 3) * lda;
    std::size_t j = i < banded ? n - n % 16 : 0;
    for (; j + 16 <= n; j += 16) {
      __m512d c00 = _mm512_loadu_pd(c + (i + 0) * ldc + j);
      __m512d c01 = _mm512_loadu_pd(c + (i + 0) * ldc + j + 8);
      __m512d c10 = _mm512_loadu_pd(c + (i + 1) * ldc + j);
      __m512d c11 = _mm512_loadu_pd(c + (i + 1) * ldc + j + 8);
      __m512d c20 = _mm512_loadu_pd(c + (i + 2) * ldc + j);
      __m512d c21 = _mm512_loadu_pd(c + (i + 2) * ldc + j + 8);
      __m512d c30 = _mm512_loadu_pd(c + (i + 3) * ldc + j);
      __m512d c31 = _mm512_loadu_pd(c + (i + 3) * ldc + j + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const double* brow = b + p * ldb + j;
        const __m512d b0 = _mm512_loadu_pd(brow);
        const __m512d b1 = _mm512_loadu_pd(brow + 8);
        __m512d av = _mm512_set1_pd(a0[p]);
        c00 = _mm512_fmadd_pd(av, b0, c00);
        c01 = _mm512_fmadd_pd(av, b1, c01);
        av = _mm512_set1_pd(a1[p]);
        c10 = _mm512_fmadd_pd(av, b0, c10);
        c11 = _mm512_fmadd_pd(av, b1, c11);
        av = _mm512_set1_pd(a2[p]);
        c20 = _mm512_fmadd_pd(av, b0, c20);
        c21 = _mm512_fmadd_pd(av, b1, c21);
        av = _mm512_set1_pd(a3[p]);
        c30 = _mm512_fmadd_pd(av, b0, c30);
        c31 = _mm512_fmadd_pd(av, b1, c31);
      }
      _mm512_storeu_pd(c + (i + 0) * ldc + j, c00);
      _mm512_storeu_pd(c + (i + 0) * ldc + j + 8, c01);
      _mm512_storeu_pd(c + (i + 1) * ldc + j, c10);
      _mm512_storeu_pd(c + (i + 1) * ldc + j + 8, c11);
      _mm512_storeu_pd(c + (i + 2) * ldc + j, c20);
      _mm512_storeu_pd(c + (i + 2) * ldc + j + 8, c21);
      _mm512_storeu_pd(c + (i + 3) * ldc + j, c30);
      _mm512_storeu_pd(c + (i + 3) * ldc + j + 8, c31);
    }
    for (; j + 8 <= n; j += 8) {
      __m512d c0 = _mm512_loadu_pd(c + (i + 0) * ldc + j);
      __m512d c1 = _mm512_loadu_pd(c + (i + 1) * ldc + j);
      __m512d c2 = _mm512_loadu_pd(c + (i + 2) * ldc + j);
      __m512d c3 = _mm512_loadu_pd(c + (i + 3) * ldc + j);
      for (std::size_t p = 0; p < k; ++p) {
        const __m512d bv = _mm512_loadu_pd(b + p * ldb + j);
        c0 = _mm512_fmadd_pd(_mm512_set1_pd(a0[p]), bv, c0);
        c1 = _mm512_fmadd_pd(_mm512_set1_pd(a1[p]), bv, c1);
        c2 = _mm512_fmadd_pd(_mm512_set1_pd(a2[p]), bv, c2);
        c3 = _mm512_fmadd_pd(_mm512_set1_pd(a3[p]), bv, c3);
      }
      _mm512_storeu_pd(c + (i + 0) * ldc + j, c0);
      _mm512_storeu_pd(c + (i + 1) * ldc + j, c1);
      _mm512_storeu_pd(c + (i + 2) * ldc + j, c2);
      _mm512_storeu_pd(c + (i + 3) * ldc + j, c3);
    }
    // Leftover columns: four independent per-row chains advance together,
    // so the FMA latency overlaps (each chain's order is unchanged).
    for (; j < n; ++j) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double bv = b[p * ldb + j];
        s0 = std::fma(a0[p], bv, s0);
        s1 = std::fma(a1[p], bv, s1);
        s2 = std::fma(a2[p], bv, s2);
        s3 = std::fma(a3[p], bv, s3);
      }
      c[(i + 0) * ldc + j] += s0;
      c[(i + 1) * ldc + j] += s1;
      c[(i + 2) * ldc + j] += s2;
      c[(i + 3) * ldc + j] += s3;
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    std::size_t j = 0;
    // A single row (the Twin-Q screen, act) has no neighbouring rows to
    // interleave: sixteen accumulators over 128 columns hide the FMA
    // latency that two cannot and stream B row by row, contiguously. Each
    // column keeps its chain from C.
    for (; j + 128 <= n; j += 128) {
      __m512d acc[16];
#pragma GCC unroll 16
      for (std::size_t q = 0; q < 16; ++q) {
        acc[q] = _mm512_loadu_pd(crow + j + 8 * q);
      }
      for (std::size_t p = 0; p < k; ++p) {
        const __m512d av = _mm512_set1_pd(arow[p]);
        const double* brow = b + p * ldb + j;
#pragma GCC unroll 16
        for (std::size_t q = 0; q < 16; ++q) {
          acc[q] = _mm512_fmadd_pd(av, _mm512_loadu_pd(brow + 8 * q), acc[q]);
        }
      }
#pragma GCC unroll 16
      for (std::size_t q = 0; q < 16; ++q) {
        _mm512_storeu_pd(crow + j + 8 * q, acc[q]);
      }
    }
    for (; j + 16 <= n; j += 16) {
      __m512d c0 = _mm512_loadu_pd(crow + j);
      __m512d c1 = _mm512_loadu_pd(crow + j + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const __m512d av = _mm512_set1_pd(arow[p]);
        c0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + p * ldb + j), c0);
        c1 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + p * ldb + j + 8), c1);
      }
      _mm512_storeu_pd(crow + j, c0);
      _mm512_storeu_pd(crow + j + 8, c1);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s = std::fma(arow[p], b[p * ldb + j], s);
      }
      crow[j] += s;
    }
  }
}

// C(m x 1) (+)= A^T b for a (k x m) A — the n == 1 case. Column p of A^T is
// row p of A, contiguous across output rows, so lane r of an accumulator
// is row r's FMA chain from +0.0 in ascending p with plain vector loads.
template <bool kSet>
DEEPCAT_TARGET_AVX512 void gemm_tn_n1_avx512(std::size_t m, std::size_t k,
                                             const double* a, std::size_t lda,
                                             const double* b, std::size_t ldb,
                                             double* c,
                                             std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 64 <= m; i += 64) {
    __m512d acc[8];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < 8; ++q) acc[q] = _mm512_setzero_pd();
    for (std::size_t p = 0; p < k; ++p) {
      const __m512d bp = _mm512_set1_pd(b[p * ldb]);
      const double* ap = a + p * lda + i;
#pragma GCC unroll 8
      for (std::size_t q = 0; q < 8; ++q) {
        acc[q] = _mm512_fmadd_pd(_mm512_loadu_pd(ap + 8 * q), bp, acc[q]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t q = 0; q < 8; ++q) {
      add_rows_avx512<kSet>(acc[q], c + (i + 8 * q) * ldc, ldc);
    }
  }
  for (; i + 8 <= m; i += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t p = 0; p < k; ++p) {
      acc = _mm512_fmadd_pd(_mm512_loadu_pd(a + p * lda + i),
                            _mm512_set1_pd(b[p * ldb]), acc);
    }
    add_rows_avx512<kSet>(acc, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      s = std::fma(a[p * lda + i], b[p * ldb], s);
    }
    c[i * ldc] = c_in<kSet>(c + i * ldc) + s;
  }
}

// Same band + 4x16 block shapes as gemm_nn_avx512; only the A access
// changes (column i of the stored (k x m) A, i.e. strided broadcasts).
template <bool kSet>
DEEPCAT_TARGET_AVX512 void gemm_tn_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, double* c,
                                          std::size_t ldc) noexcept {
  if (n == 1) {
    gemm_tn_n1_avx512<kSet>(m, k, a, lda, b, ldb, c, ldc);
    return;
  }
  const std::size_t banded =
      gemm_bands_8x16_avx512<kSet>(m, n, k, a, 1, lda, b, ldb, c, ldc);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    std::size_t j = i < banded ? n - n % 16 : 0;
    for (; j + 16 <= n; j += 16) {
      __m512d c00 = c_in_avx512<kSet>(c + (i + 0) * ldc + j);
      __m512d c01 = c_in_avx512<kSet>(c + (i + 0) * ldc + j + 8);
      __m512d c10 = c_in_avx512<kSet>(c + (i + 1) * ldc + j);
      __m512d c11 = c_in_avx512<kSet>(c + (i + 1) * ldc + j + 8);
      __m512d c20 = c_in_avx512<kSet>(c + (i + 2) * ldc + j);
      __m512d c21 = c_in_avx512<kSet>(c + (i + 2) * ldc + j + 8);
      __m512d c30 = c_in_avx512<kSet>(c + (i + 3) * ldc + j);
      __m512d c31 = c_in_avx512<kSet>(c + (i + 3) * ldc + j + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const double* acol = a + p * lda + i;
        const double* brow = b + p * ldb + j;
        const __m512d b0 = _mm512_loadu_pd(brow);
        const __m512d b1 = _mm512_loadu_pd(brow + 8);
        __m512d av = _mm512_set1_pd(acol[0]);
        c00 = _mm512_fmadd_pd(av, b0, c00);
        c01 = _mm512_fmadd_pd(av, b1, c01);
        av = _mm512_set1_pd(acol[1]);
        c10 = _mm512_fmadd_pd(av, b0, c10);
        c11 = _mm512_fmadd_pd(av, b1, c11);
        av = _mm512_set1_pd(acol[2]);
        c20 = _mm512_fmadd_pd(av, b0, c20);
        c21 = _mm512_fmadd_pd(av, b1, c21);
        av = _mm512_set1_pd(acol[3]);
        c30 = _mm512_fmadd_pd(av, b0, c30);
        c31 = _mm512_fmadd_pd(av, b1, c31);
      }
      _mm512_storeu_pd(c + (i + 0) * ldc + j, c00);
      _mm512_storeu_pd(c + (i + 0) * ldc + j + 8, c01);
      _mm512_storeu_pd(c + (i + 1) * ldc + j, c10);
      _mm512_storeu_pd(c + (i + 1) * ldc + j + 8, c11);
      _mm512_storeu_pd(c + (i + 2) * ldc + j, c20);
      _mm512_storeu_pd(c + (i + 2) * ldc + j + 8, c21);
      _mm512_storeu_pd(c + (i + 3) * ldc + j, c30);
      _mm512_storeu_pd(c + (i + 3) * ldc + j + 8, c31);
    }
    for (; j < n; ++j) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double* acol = a + p * lda + i;
        const double bv = b[p * ldb + j];
        s0 = std::fma(acol[0], bv, s0);
        s1 = std::fma(acol[1], bv, s1);
        s2 = std::fma(acol[2], bv, s2);
        s3 = std::fma(acol[3], bv, s3);
      }
      double* cj = c + i * ldc + j;
      cj[0] = c_in<kSet>(cj) + s0;
      cj[ldc] = c_in<kSet>(cj + ldc) + s1;
      cj[2 * ldc] = c_in<kSet>(cj + 2 * ldc) + s2;
      cj[3 * ldc] = c_in<kSet>(cj + 3 * ldc) + s3;
    }
  }
  for (; i < m; ++i) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m512d c0 = c_in_avx512<kSet>(c + i * ldc + j);
      __m512d c1 = c_in_avx512<kSet>(c + i * ldc + j + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const __m512d av = _mm512_set1_pd(a[p * lda + i]);
        c0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + p * ldb + j), c0);
        c1 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + p * ldb + j + 8), c1);
      }
      _mm512_storeu_pd(c + i * ldc + j, c0);
      _mm512_storeu_pd(c + i * ldc + j + 8, c1);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s = std::fma(a[p * lda + i], b[p * ldb + j], s);
      }
      c[i * ldc + j] = c_in<kSet>(c + i * ldc + j) + s;
    }
  }
}

// _mm512_reduce_add_pd of four accumulators at once: lane q of the result
// is bit-identical to _mm512_reduce_add_pd(acc_q). The same three levels
// (high half + low half, then high pair + low pair, then element 0 +
// element 1) run on shuffled registers, so four reductions cost about
// what one did.
DEEPCAT_TARGET_AVX512 inline __m256d reduce_add4_avx512(
    __m512d a, __m512d b, __m512d c, __m512d d) noexcept {
  // Level 1: [a.hi4 + a.lo4 | b.hi4 + b.lo4] and likewise for c, d.
  const __m512d ab =
      _mm512_add_pd(_mm512_shuffle_f64x2(a, b, _MM_SHUFFLE(3, 2, 3, 2)),
                    _mm512_shuffle_f64x2(a, b, _MM_SHUFFLE(1, 0, 1, 0)));
  const __m512d cd =
      _mm512_add_pd(_mm512_shuffle_f64x2(c, d, _MM_SHUFFLE(3, 2, 3, 2)),
                    _mm512_shuffle_f64x2(c, d, _MM_SHUFFLE(1, 0, 1, 0)));
  // Level 2: one 128-bit lane per accumulator, high pair + low pair.
  const __m512d t =
      _mm512_add_pd(_mm512_shuffle_f64x2(ab, cd, _MM_SHUFFLE(3, 1, 3, 1)),
                    _mm512_shuffle_f64x2(ab, cd, _MM_SHUFFLE(2, 0, 2, 0)));
  // Level 3: element 0 + element 1 of each lane lands in its even slot.
  const __m512d sum = _mm512_add_pd(t, _mm512_permute_pd(t, 0x55));
  return _mm512_castpd512_pd256(_mm512_permutexvar_pd(
      _mm512_set_epi64(7, 7, 7, 7, 6, 4, 2, 0), sum));
}

// One output row of the 1x4 dot kernel, 8-wide accumulators; the blocked
// kernel below keeps exactly this per-output arithmetic.
template <bool kSet>
DEEPCAT_TARGET_AVX512 void gemm_nt_row_avx512(const double* arow,
                                              std::size_t n, std::size_t k,
                                              const double* b,
                                              std::size_t ldb,
                                              double* crow) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const double* b0 = b + (j + 0) * ldb;
    const double* b1 = b + (j + 1) * ldb;
    const double* b2 = b + (j + 2) * ldb;
    const double* b3 = b + (j + 3) * ldb;
    __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
    __m512d acc2 = _mm512_setzero_pd(), acc3 = _mm512_setzero_pd();
    std::size_t p = 0;
    for (; p + 8 <= k; p += 8) {
      const __m512d av = _mm512_loadu_pd(arow + p);
      acc0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b0 + p), acc0);
      acc1 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b1 + p), acc1);
      acc2 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b2 + p), acc2);
      acc3 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b3 + p), acc3);
    }
    double s0 = _mm512_reduce_add_pd(acc0);
    double s1 = _mm512_reduce_add_pd(acc1);
    double s2 = _mm512_reduce_add_pd(acc2);
    double s3 = _mm512_reduce_add_pd(acc3);
    for (; p < k; ++p) {
      const double av = arow[p];
      s0 = std::fma(av, b0[p], s0);
      s1 = std::fma(av, b1[p], s1);
      s2 = std::fma(av, b2[p], s2);
      s3 = std::fma(av, b3[p], s3);
    }
    crow[j + 0] = c_in<kSet>(crow + j + 0) + s0;
    crow[j + 1] = c_in<kSet>(crow + j + 1) + s1;
    crow[j + 2] = c_in<kSet>(crow + j + 2) + s2;
    crow[j + 3] = c_in<kSet>(crow + j + 3) + s3;
  }
  for (; j < n; ++j) {
    crow[j] = c_in<kSet>(crow + j) + dot_avx512(arow, b + j * ldb, k);
  }
}

// C (+)= A * B^T at k == 1: every path of gemm_nt_avx512 computes a single
// product as fma(a, b, +0.0) (a zeroed accumulator or reduction of +0.0
// plus the FMA tail) and adds it to C, here vectorized across the columns.
template <bool kSet>
DEEPCAT_TARGET_AVX512 void gemm_nt_k1_avx512(std::size_t m, std::size_t n,
                                             const double* a, std::size_t lda,
                                             const double* b, std::size_t ldb,
                                             double* c,
                                             std::size_t ldc) noexcept {
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t i = 0; i < m; ++i) {
    const double ai = a[i * lda];
    const __m512d av = _mm512_set1_pd(ai);
    double* crow = c + i * ldc;
    std::size_t j = 0;
    if (ldb == 1) {
      for (; j + 8 <= n; j += 8) {
        const __m512d prod = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + j), zero);
        _mm512_storeu_pd(crow + j,
                         _mm512_add_pd(c_in_avx512<kSet>(crow + j), prod));
      }
    }
    for (; j < n; ++j) {
      crow[j] = c_in<kSet>(crow + j) + std::fma(ai, b[j * ldb], 0.0);
    }
  }
}

// 4 A rows x 4 B rows per tile: 16 accumulators + 4 A + 4 B vectors fit
// the 32 zmm registers, so each load feeds 4 FMAs and B streams from L2
// once per 4 A rows instead of once per row.
template <bool kSet>
DEEPCAT_TARGET_AVX512 void gemm_nt_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, double* c,
                                          std::size_t ldc) noexcept {
  if (k == 1) {
    gemm_nt_k1_avx512<kSet>(m, n, a, lda, b, ldb, c, ldc);
    return;
  }
  const std::size_t n4 = n - n % 4;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* ar[4] = {a + (i + 0) * lda, a + (i + 1) * lda,
                           a + (i + 2) * lda, a + (i + 3) * lda};
    double* cr[4] = {c + (i + 0) * ldc, c + (i + 1) * ldc, c + (i + 2) * ldc,
                     c + (i + 3) * ldc};
    for (std::size_t j = 0; j < n4; j += 4) {
      const double* bc[4] = {b + (j + 0) * ldb, b + (j + 1) * ldb,
                             b + (j + 2) * ldb, b + (j + 3) * ldb};
      __m512d acc[4][4];
#pragma GCC unroll 4
      for (int r = 0; r < 4; ++r) {
#pragma GCC unroll 4
        for (int q = 0; q < 4; ++q) acc[r][q] = _mm512_setzero_pd();
      }
      std::size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        __m512d bv[4];
#pragma GCC unroll 4
        for (int q = 0; q < 4; ++q) bv[q] = _mm512_loadu_pd(bc[q] + p);
#pragma GCC unroll 4
        for (int r = 0; r < 4; ++r) {
          const __m512d av = _mm512_loadu_pd(ar[r] + p);
#pragma GCC unroll 4
          for (int q = 0; q < 4; ++q) {
            acc[r][q] = _mm512_fmadd_pd(av, bv[q], acc[r][q]);
          }
        }
      }
      // Scalar tail in ascending p, four columns per vector (per-lane FMA
      // is the scalar tail's s = fma(a, b, s)), then C += s. With k < 8
      // the accumulators never left +0.0, and neither does their sum.
#pragma GCC unroll 4
      for (int r = 0; r < 4; ++r) {
        __m256d sv = p == 0 ? _mm256_setzero_pd()
                            : reduce_add4_avx512(acc[r][0], acc[r][1],
                                                 acc[r][2], acc[r][3]);
        for (std::size_t t = p; t < k; ++t) {
          const __m256d bt = _mm256_set_pd(bc[3][t], bc[2][t], bc[1][t],
                                           bc[0][t]);
          sv = _mm256_fmadd_pd(_mm256_set1_pd(ar[r][t]), bt, sv);
        }
        double* cj = cr[r] + j;
        _mm256_storeu_pd(cj, _mm256_add_pd(c_in_avx2<kSet>(cj), sv));
      }
    }
    for (std::size_t j = n4; j < n; ++j) {
      for (int r = 0; r < 4; ++r) {
        cr[r][j] = c_in<kSet>(cr[r] + j) + dot_avx512(ar[r], b + j * ldb, k);
      }
    }
  }
  for (; i < m; ++i) {
    gemm_nt_row_avx512<kSet>(a + i * lda, n, k, b, ldb, c + i * ldc);
  }
}

DEEPCAT_TARGET_AVX512 void relu_avx512(double* x, std::size_t n) noexcept {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_max_pd(_mm512_loadu_pd(x + i), zero));
  }
  relu_scalar(x + i, n - i);
}

DEEPCAT_TARGET_AVX512 void relu_grad_avx512(const double* g, const double* y,
                                            double* out,
                                            std::size_t n) noexcept {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 keep =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(y + i), zero, _CMP_NLE_UQ);
    _mm512_storeu_pd(out + i, _mm512_maskz_mov_pd(keep, _mm512_loadu_pd(g + i)));
  }
  relu_grad_scalar(g + i, y + i, out + i, n - i);
}

template <bool kSet>
DEEPCAT_TARGET_AVX512 void col_sums_add_avx512(std::size_t rows,
                                               std::size_t cols,
                                               const double* a,
                                               std::size_t lda,
                                               double* out) noexcept {
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m512d s = _mm512_setzero_pd();
    for (std::size_t r = 0; r < rows; ++r) {
      s = _mm512_add_pd(s, _mm512_loadu_pd(a + r * lda + j));
    }
    _mm512_storeu_pd(out + j, _mm512_add_pd(c_in_avx512<kSet>(out + j), s));
  }
  col_sums_add_scalar<kSet>(rows, cols - j, a + j, lda, out + j);
}

// ---- L2-tiled packed GEMM path -------------------------------------------
// BLIS-style loop nest for operands at or above kPackedMinDim in every
// dimension: B panels (KC x NC) and A blocks (MC x KC) are copied once into
// contiguous micro-panel layouts, so the micro-kernels stream packed memory
// instead of striding the source matrices. One generic packing routine per
// operand (parameterized on row/column element strides) serves all three
// storage variants (nn/tn/nt). Panels are zero-padded to the MR/NR register
// tile, so only full-size micro-kernel calls exist; partial edge tiles land
// in a zeroed scratch tile and add back the valid region.
//
// Block sizes: KC=256 keeps an A micro-panel column strip plus a B panel
// strip inside L2 alongside the C tile; MC=96 (a multiple of MR=4) bounds
// the packed-A block at 192 KiB; NC=1024 (a multiple of both NR widths)
// bounds packed B at 2 MiB — sized for the n in [256, 2048] band the GP
// refit and bench sweeps occupy.

constexpr std::size_t kPackKc = 256;
constexpr std::size_t kPackMc = 96;
constexpr std::size_t kPackNc = 1024;
constexpr std::size_t kPackMr = 4;

// Packs rows [i0, i0+mc) x cols [p0, p0+kc) of op(A) — element (i, p) at
// a[i*ars + p*acs] — into mc/MR k-major micro-panels of MR rows each.
void pack_a_block(const double* a, std::size_t ars, std::size_t acs,
                  std::size_t i0, std::size_t mc, std::size_t p0,
                  std::size_t kc, double* out) noexcept {
  for (std::size_t ir = 0; ir < mc; ir += kPackMr) {
    const std::size_t mr = std::min(kPackMr, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      const double* src = a + (i0 + ir) * ars + (p0 + p) * acs;
      for (std::size_t r = 0; r < kPackMr; ++r) {
        out[p * kPackMr + r] = (r < mr) ? src[r * ars] : 0.0;
      }
    }
    out += kc * kPackMr;
  }
}

// Packs rows [p0, p0+kc) x cols [j0, j0+nc) of op(B) — element (p, j) at
// b[p*brs + j*bcs] — into nc/NR k-major micro-panels of NR columns each.
void pack_b_block(const double* b, std::size_t brs, std::size_t bcs,
                  std::size_t p0, std::size_t kc, std::size_t j0,
                  std::size_t nc, std::size_t nr_width,
                  double* out) noexcept {
  for (std::size_t jr = 0; jr < nc; jr += nr_width) {
    const std::size_t nr = std::min(nr_width, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      const double* src = b + (p0 + p) * brs + (j0 + jr) * bcs;
      for (std::size_t col = 0; col < nr_width; ++col) {
        out[p * nr_width + col] = (col < nr) ? src[col * bcs] : 0.0;
      }
    }
    out += kc * nr_width;
  }
}

// Packed micro-kernels: accumulators start at zero and add into C at the
// end, so C(4 x NR) += packed_A(kc x 4) * packed_B(kc x NR). Broadcast-A /
// streamed-B with per-element ascending-k FMA chains, same as the
// register-blocked tiles.
DEEPCAT_TARGET_AVX2 void micro_4x8_avx2(std::size_t kc, const double* pa,
                                        const double* pb, double* c,
                                        std::size_t ldc) noexcept {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(pb + p * 8);
    const __m256d b1 = _mm256_loadu_pd(pb + p * 8 + 4);
    const double* ap = pa + p * 4;
    __m256d av = _mm256_set1_pd(ap[0]);
    c00 = _mm256_fmadd_pd(av, b0, c00);
    c01 = _mm256_fmadd_pd(av, b1, c01);
    av = _mm256_set1_pd(ap[1]);
    c10 = _mm256_fmadd_pd(av, b0, c10);
    c11 = _mm256_fmadd_pd(av, b1, c11);
    av = _mm256_set1_pd(ap[2]);
    c20 = _mm256_fmadd_pd(av, b0, c20);
    c21 = _mm256_fmadd_pd(av, b1, c21);
    av = _mm256_set1_pd(ap[3]);
    c30 = _mm256_fmadd_pd(av, b0, c30);
    c31 = _mm256_fmadd_pd(av, b1, c31);
  }
  _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), c00));
  _mm256_storeu_pd(c + 4, _mm256_add_pd(_mm256_loadu_pd(c + 4), c01));
  double* r1 = c + ldc;
  _mm256_storeu_pd(r1, _mm256_add_pd(_mm256_loadu_pd(r1), c10));
  _mm256_storeu_pd(r1 + 4, _mm256_add_pd(_mm256_loadu_pd(r1 + 4), c11));
  double* r2 = c + 2 * ldc;
  _mm256_storeu_pd(r2, _mm256_add_pd(_mm256_loadu_pd(r2), c20));
  _mm256_storeu_pd(r2 + 4, _mm256_add_pd(_mm256_loadu_pd(r2 + 4), c21));
  double* r3 = c + 3 * ldc;
  _mm256_storeu_pd(r3, _mm256_add_pd(_mm256_loadu_pd(r3), c30));
  _mm256_storeu_pd(r3 + 4, _mm256_add_pd(_mm256_loadu_pd(r3 + 4), c31));
}

DEEPCAT_TARGET_AVX512 void micro_4x16_avx512(std::size_t kc, const double* pa,
                                             const double* pb, double* c,
                                             std::size_t ldc) noexcept {
  __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
  __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
  __m512d c20 = _mm512_setzero_pd(), c21 = _mm512_setzero_pd();
  __m512d c30 = _mm512_setzero_pd(), c31 = _mm512_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m512d b0 = _mm512_loadu_pd(pb + p * 16);
    const __m512d b1 = _mm512_loadu_pd(pb + p * 16 + 8);
    const double* ap = pa + p * 4;
    __m512d av = _mm512_set1_pd(ap[0]);
    c00 = _mm512_fmadd_pd(av, b0, c00);
    c01 = _mm512_fmadd_pd(av, b1, c01);
    av = _mm512_set1_pd(ap[1]);
    c10 = _mm512_fmadd_pd(av, b0, c10);
    c11 = _mm512_fmadd_pd(av, b1, c11);
    av = _mm512_set1_pd(ap[2]);
    c20 = _mm512_fmadd_pd(av, b0, c20);
    c21 = _mm512_fmadd_pd(av, b1, c21);
    av = _mm512_set1_pd(ap[3]);
    c30 = _mm512_fmadd_pd(av, b0, c30);
    c31 = _mm512_fmadd_pd(av, b1, c31);
  }
  _mm512_storeu_pd(c, _mm512_add_pd(_mm512_loadu_pd(c), c00));
  _mm512_storeu_pd(c + 8, _mm512_add_pd(_mm512_loadu_pd(c + 8), c01));
  double* r1 = c + ldc;
  _mm512_storeu_pd(r1, _mm512_add_pd(_mm512_loadu_pd(r1), c10));
  _mm512_storeu_pd(r1 + 8, _mm512_add_pd(_mm512_loadu_pd(r1 + 8), c11));
  double* r2 = c + 2 * ldc;
  _mm512_storeu_pd(r2, _mm512_add_pd(_mm512_loadu_pd(r2), c20));
  _mm512_storeu_pd(r2 + 8, _mm512_add_pd(_mm512_loadu_pd(r2 + 8), c21));
  double* r3 = c + 3 * ldc;
  _mm512_storeu_pd(r3, _mm512_add_pd(_mm512_loadu_pd(r3), c30));
  _mm512_storeu_pd(r3 + 8, _mm512_add_pd(_mm512_loadu_pd(r3 + 8), c31));
}

// Generic packed driver: C(m x n) += op(A)(m x k) * op(B)(k x n) with
// element strides (ars, acs) / (brs, bcs). Returns false if the packing
// buffers cannot be allocated (caller falls back to register-blocked).
bool gemm_packed(Backend be, std::size_t m, std::size_t n, std::size_t k,
                 const double* a, std::size_t ars, std::size_t acs,
                 const double* b, std::size_t brs, std::size_t bcs,
                 double* c, std::size_t ldc) noexcept {
  const std::size_t nr_width = (be == Backend::kAvx512) ? 16 : 8;
  std::unique_ptr<double[]> pb_buf(
      new (std::nothrow) double[kPackKc * kPackNc]);
  std::unique_ptr<double[]> pa_buf(
      new (std::nothrow) double[kPackMc * kPackKc]);
  if (pb_buf == nullptr || pa_buf == nullptr) return false;
  double* const pb = pb_buf.get();
  double* const pa = pa_buf.get();

  for (std::size_t jc = 0; jc < n; jc += kPackNc) {
    const std::size_t nc = std::min(kPackNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kPackKc) {
      const std::size_t kc = std::min(kPackKc, k - pc);
      pack_b_block(b, brs, bcs, pc, kc, jc, nc, nr_width, pb);
      for (std::size_t ic = 0; ic < m; ic += kPackMc) {
        const std::size_t mc = std::min(kPackMc, m - ic);
        pack_a_block(a, ars, acs, ic, mc, pc, kc, pa);
        for (std::size_t jr = 0; jr < nc; jr += nr_width) {
          const std::size_t nr = std::min(nr_width, nc - jr);
          const double* pbp = pb + (jr / nr_width) * kc * nr_width;
          for (std::size_t ir = 0; ir < mc; ir += kPackMr) {
            const std::size_t mr = std::min(kPackMr, mc - ir);
            const double* pap = pa + (ir / kPackMr) * kc * kPackMr;
            double* cptr = c + (ic + ir) * ldc + (jc + jr);
            if (mr == kPackMr && nr == nr_width) {
              if (be == Backend::kAvx512) {
                micro_4x16_avx512(kc, pap, pbp, cptr, ldc);
              } else {
                micro_4x8_avx2(kc, pap, pbp, cptr, ldc);
              }
            } else {
              alignas(64) double tmp[kPackMr * 16];
              std::memset(tmp, 0, sizeof(tmp));
              if (be == Backend::kAvx512) {
                micro_4x16_avx512(kc, pap, pbp, tmp, 16);
              } else {
                micro_4x8_avx2(kc, pap, pbp, tmp, 8);
              }
              for (std::size_t r = 0; r < mr; ++r) {
                for (std::size_t col = 0; col < nr; ++col) {
                  cptr[r * ldc + col] += tmp[r * nr_width + col];
                }
              }
            }
          }
        }
      }
    }
  }
  return true;
}

// kAuto path choice: packed only once every dimension reaches the floor —
// below it the packing traffic costs more than the strided loads it saves.
bool use_packed_path(std::size_t m, std::size_t n, std::size_t k) noexcept {
  switch (g_gemm_path) {
    case GemmPath::kPacked:
      return true;
    case GemmPath::kRegisterBlocked:
      return false;
    case GemmPath::kAuto:
    default:
      return m >= kPackedMinDim && n >= kPackedMinDim && k >= kPackedMinDim;
  }
}

#endif  // DEEPCAT_SIMD_X86

}  // namespace

Backend active_backend() noexcept {
  return min_backend(g_max_backend, g_forced_cap);
}

Backend detected_backend() noexcept { return g_detected_backend; }

Backend max_backend() noexcept { return g_max_backend; }

bool backend_selectable(Backend b) noexcept {
  return static_cast<int>(b) >= static_cast<int>(Backend::kScalar) &&
         static_cast<int>(b) <= static_cast<int>(g_max_backend);
}

const char* backend_label(Backend b) noexcept {
  switch (b) {
    case Backend::kAvx512:
      return "avx512";
    case Backend::kAvx2:
      return "avx2+fma";
    default:
      return "scalar";
  }
}

const char* backend_name() noexcept {
  return backend_label(active_backend());
}

const char* isa_ladder() noexcept {
  switch (g_detected_backend) {
    case Backend::kAvx512:
      return "scalar,avx2+fma,avx512";
    case Backend::kAvx2:
      return "scalar,avx2+fma";
    default:
      return "scalar";
  }
}

void force_backend(Backend cap) noexcept { g_forced_cap = cap; }

void force_scalar(bool on) noexcept {
  g_forced_cap = on ? Backend::kScalar : Backend::kAvx512;
}

bool vectorized_active() noexcept {
  return active_backend() != Backend::kScalar;
}

bool vector_compiled() noexcept { return DEEPCAT_SIMD_X86 != 0; }

void force_gemm_path(GemmPath path) noexcept { g_gemm_path = path; }

GemmPath forced_gemm_path() noexcept { return g_gemm_path; }

std::size_t packed_gemm_min_dim() noexcept { return kPackedMinDim; }

DispatchCounts dispatch_counts() noexcept {
  DispatchCounts counts;
  counts.scalar_calls = g_scalar_calls.load(std::memory_order_relaxed);
  counts.avx2_calls = g_avx2_calls.load(std::memory_order_relaxed);
  counts.avx512_calls = g_avx512_calls.load(std::memory_order_relaxed);
  counts.packed_calls = g_packed_calls.load(std::memory_order_relaxed);
  return counts;
}

void reset_dispatch_counts() noexcept {
  g_scalar_calls.store(0, std::memory_order_relaxed);
  g_avx2_calls.store(0, std::memory_order_relaxed);
  g_avx512_calls.store(0, std::memory_order_relaxed);
  g_packed_calls.store(0, std::memory_order_relaxed);
}

double dot(const double* a, const double* b, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      return dot_avx512(a, b, n);
    case Backend::kAvx2:
      return dot_avx2(a, b, n);
    default:
      break;
  }
#endif
  return dot_scalar(a, b, n);
}

double squared_distance(const double* a, const double* b,
                        std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      return squared_distance_avx512(a, b, n);
    case Backend::kAvx2:
      return squared_distance_avx2(a, b, n);
    default:
      break;
  }
#endif
  return squared_distance_scalar(a, b, n);
}

void squared_distances(const double* query, const double* rows,
                       std::size_t n_rows, std::size_t dim,
                       double* out) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      squared_distances_avx512(query, rows, n_rows, dim, out);
      return;
    case Backend::kAvx2:
      squared_distances_avx2(query, rows, n_rows, dim, out);
      return;
    default:
      break;
  }
#endif
  squared_distances_scalar(query, rows, n_rows, dim, out);
}

void cosine_distances(const double* query, const double* rows,
                      std::size_t n_rows, std::size_t dim,
                      double* out) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      cosine_distances_avx512(query, rows, n_rows, dim, out);
      return;
    case Backend::kAvx2:
      cosine_distances_avx2(query, rows, n_rows, dim, out);
      return;
    default:
      break;
  }
#endif
  cosine_distances_scalar(query, rows, n_rows, dim, out);
}

double sum(const double* a, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      return sum_avx512(a, n);
    case Backend::kAvx2:
      return sum_avx2(a, n);
    default:
      break;
  }
#endif
  return sum_scalar(a, n);
}

double sum_squares(const double* a, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      return dot_avx512(a, a, n);
    case Backend::kAvx2:
      return dot_avx2(a, a, n);
    default:
      break;
  }
#endif
  return dot_scalar(a, a, n);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      axpy_avx512(alpha, x, y, n);
      return;
    case Backend::kAvx2:
      axpy_avx2(alpha, x, y, n);
      return;
    default:
      break;
  }
#endif
  axpy_scalar(alpha, x, y, n);
}

void adam_update(double* value, const double* grad, double* m, double* v,
                 std::size_t n, double scale, double beta1, double beta2,
                 double bc1, double bc2, double lr, double eps) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      adam_update_avx512(value, grad, m, v, n, scale, beta1, beta2, bc1, bc2,
                         lr, eps);
      return;
    case Backend::kAvx2:
      adam_update_avx2(value, grad, m, v, n, scale, beta1, beta2, bc1, bc2,
                       lr, eps);
      return;
    default:
      break;
  }
#endif
  adam_update_scalar(value, grad, m, v, n, scale, beta1, beta2, bc1, bc2, lr,
                     eps);
}

void adam_update_clipped(const AdamTensor* tensors, std::size_t count,
                         double grad_clip, double beta1, double beta2,
                         double bc1, double bc2, double lr,
                         double eps) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      adam_update_clipped_avx512(tensors, count, grad_clip, beta1, beta2,
                                 bc1, bc2, lr, eps);
      return;
    case Backend::kAvx2:
      adam_update_clipped_avx2(tensors, count, grad_clip, beta1, beta2, bc1,
                               bc2, lr, eps);
      return;
    default:
      break;
  }
#endif
  adam_update_clipped_scalar(tensors, count, grad_clip, beta1, beta2, bc1,
                             bc2, lr, eps);
}

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  if (be != Backend::kScalar && use_packed_path(m, n, k) &&
      gemm_packed(be, m, n, k, a, lda, 1, b, ldb, 1, c, ldc)) {
    count_packed();
    return;
  }
  switch (be) {
    case Backend::kAvx512:
      gemm_nn_avx512(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    case Backend::kAvx2:
      gemm_nn_avx2(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    default:
      break;
  }
#endif
  gemm_nn_scalar(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, Store store) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  if (be != Backend::kScalar && use_packed_path(m, n, k)) {
    if (store == Store::kSet) zero_block(m, n, c, ldc);
    if (gemm_packed(be, m, n, k, a, 1, lda, b, ldb, 1, c, ldc)) {
      count_packed();
      return;
    }
    store = Store::kAdd;  // C is zero-filled already
  }
  const bool set = store == Store::kSet;
  switch (be) {
    case Backend::kAvx512:
      set ? gemm_tn_avx512<true>(m, n, k, a, lda, b, ldb, c, ldc)
          : gemm_tn_avx512<false>(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    case Backend::kAvx2:
      set ? gemm_tn_avx2<true>(m, n, k, a, lda, b, ldb, c, ldc)
          : gemm_tn_avx2<false>(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    default:
      break;
  }
#endif
  if (store == Store::kSet) zero_block(m, n, c, ldc);
  gemm_tn_scalar(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, Store store) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  if (be != Backend::kScalar && use_packed_path(m, n, k)) {
    if (store == Store::kSet) zero_block(m, n, c, ldc);
    if (gemm_packed(be, m, n, k, a, lda, 1, b, 1, ldb, c, ldc)) {
      count_packed();
      return;
    }
    store = Store::kAdd;  // C is zero-filled already
  }
  const bool set = store == Store::kSet;
  switch (be) {
    case Backend::kAvx512:
      set ? gemm_nt_avx512<true>(m, n, k, a, lda, b, ldb, c, ldc)
          : gemm_nt_avx512<false>(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    case Backend::kAvx2:
      set ? gemm_nt_avx2<true>(m, n, k, a, lda, b, ldb, c, ldc)
          : gemm_nt_avx2<false>(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    default:
      break;
  }
#endif
  if (store == Store::kSet) zero_block(m, n, c, ldc);
  gemm_nt_scalar(m, n, k, a, lda, b, ldb, c, ldc);
}

void soft_update(double* dst, const double* src, std::size_t n,
                 double tau) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      soft_update_avx512(dst, src, n, tau);
      return;
    case Backend::kAvx2:
      soft_update_avx2(dst, src, n, tau);
      return;
    default:
      break;
  }
#endif
  soft_update_scalar(dst, src, n, tau);
}

void relu(double* x, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      relu_avx512(x, n);
      return;
    case Backend::kAvx2:
      relu_avx2(x, n);
      return;
    default:
      break;
  }
#endif
  relu_scalar(x, n);
}

void relu_grad(const double* g, const double* y, double* out,
               std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      relu_grad_avx512(g, y, out, n);
      return;
    case Backend::kAvx2:
      relu_grad_avx2(g, y, out, n);
      return;
    default:
      break;
  }
#endif
  relu_grad_scalar(g, y, out, n);
}

void col_sums_add(std::size_t rows, std::size_t cols, const double* a,
                  std::size_t lda, double* out, Store store) noexcept {
  const bool set = store == Store::kSet;
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      set ? col_sums_add_avx512<true>(rows, cols, a, lda, out)
          : col_sums_add_avx512<false>(rows, cols, a, lda, out);
      return;
    case Backend::kAvx2:
      set ? col_sums_add_avx2<true>(rows, cols, a, lda, out)
          : col_sums_add_avx2<false>(rows, cols, a, lda, out);
      return;
    default:
      break;
  }
#endif
  set ? col_sums_add_scalar<true>(rows, cols, a, lda, out)
      : col_sums_add_scalar<false>(rows, cols, a, lda, out);
}

}  // namespace deepcat::common::simd
