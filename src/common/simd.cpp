#include "common/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

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
// highest tier the process may use. Unknown values leave the ladder
// uncapped.
Backend parse_env_cap() noexcept {
  Backend cap = Backend::kAvx512;
  if (const char* v = std::getenv("DEEPCAT_SIMD"); v != nullptr) {
    if (std::strcmp(v, "scalar") == 0) cap = Backend::kScalar;
    else if (std::strcmp(v, "avx2") == 0) cap = Backend::kAvx2;
    else if (std::strcmp(v, "avx512") == 0) cap = Backend::kAvx512;
  }
  return cap;
}

// CPU capability and the env cap are fixed at static init; the
// programmatic cap (force_backend) layers on top and can
// only lower dispatch below g_max_backend.
const Backend g_detected_backend = detect_cpu_backend();
const Backend g_max_backend = min_backend(g_detected_backend, parse_env_cap());
Backend g_forced_cap = Backend::kAvx512;

// Dispatch accounting for the chunky kernels (GEMM family + fused Adam).
// Relaxed single atomics, not stripes: these kernels run for microseconds
// per call, so one fetch_add per call is noise.
std::atomic<unsigned long long> g_scalar_calls{0};
std::atomic<unsigned long long> g_avx2_calls{0};
std::atomic<unsigned long long> g_avx512_calls{0};

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

// ---- Dense-layer epilogues ----------------------------------------------
// What the GEMMs do around their products so that no separate pass runs
// over a layer's output: the start value (C itself, a bias row or +0.0),
// the ReLU and ReLU-gradient masks at the store, and the bias-gradient
// column sums. Scalar formulas here; the vector tiers apply the same ones
// lane by lane.

// The ReLU at a store: x > 0 ? x : +0.0, so -0.0 and NaN map to +0.0. The
// vector tiers' max(x, +0.0) returns its second operand for NaN and for
// either zero, which is the same formula.
inline double relu_of(double x) noexcept { return x > 0.0 ? x : 0.0; }

// The ReLU gradient through the activation OUTPUT y: y <= 0 ? +0.0 : g, so
// a NaN y keeps g. The decision is an all-ones/all-zeros mask ANDed onto
// g's bits, branch-free (hidden activations have random signs, so a branch
// would mispredict about half the time); the vector tiers' NLE_UQ compare
// builds the same mask.
inline double relu_grad_of(double g, double y) noexcept {
  const std::uint64_t keep = 0 - static_cast<std::uint64_t>(!(y <= 0.0));
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(g) & keep);
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

// p + off for a nullable pointer (gemm_nt's ReLU mask, gemm_tn's sums).
template <typename T>
inline T* at_offset(T* p, std::size_t off) noexcept {
  return p == nullptr ? nullptr : p + off;
}

// gemm_nt's store of one output: C (+)= s, then, given the mask row y
// (laid out like C's row), the ReLU gradient of the layer below.
template <bool kSet>
inline void nt_store(double* crow, const double* yrow, std::size_t j,
                     double s) noexcept {
  const double v = c_in<kSet>(crow + j) + s;
  crow[j] = yrow == nullptr ? v : relu_grad_of(v, yrow[j]);
}

// The epilogue of the broadcast GEMMs (gemm_nn, gemm_tn). Output (i, j)
// starts from start[i * sld + j] — C itself (sld = ldc) or gemm_nn's bias
// row (sld = 0) — or from +0.0 when start is null (gemm_tn's
// Store::kSet), and is stored through relu_of when relu is set. gemm_tn's
// column sums follow C's store: added onto their output when start is
// set, written over it when start is null.
struct Epilogue {
  const double* start;
  std::size_t sld;
  bool relu;

  // This epilogue for the block whose first output is (i, j).
  [[nodiscard]] Epilogue at(std::size_t i, std::size_t j) const noexcept {
    return {start == nullptr ? nullptr : start + i * sld + j, sld, relu};
  }
  [[nodiscard]] double in(std::size_t r, std::size_t q) const noexcept {
    return start == nullptr ? 0.0 : start[r * sld + q];
  }
  [[nodiscard]] double out(double x) const noexcept {
    return relu ? relu_of(x) : x;
  }
};

// sums[j] (+)= column j of a (k x n) B, summed from +0.0 in ascending rows
// — the bias-gradient column sum. The vector tiers fold it into gemm_tn's
// first row block and call this only for the columns their tiles leave;
// the scalar tier sums every column here.
void col_sums_scalar(std::size_t k, std::size_t n, const double* b,
                     std::size_t ldb, double* sums, bool set) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) s += b[p * ldb + j];
    sums[j] = (set ? 0.0 : sums[j]) + s;
  }
}

void gemm_nn_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc,
                    const Epilogue& e) noexcept {
  // ikj order streams B and C rows; the zero-skip makes post-ReLU
  // (sparse) left operands cheap. Each C row is seeded, accumulated and
  // stored through the epilogue while it sits in L1.
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * ldc;
    const double* arow = a + i * lda;
    const Epilogue row = e.at(i, 0);
    if (row.start != crow) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = row.in(0, j);
    }
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = arow[p];
      if (aip == 0.0) continue;
      const double* brow = b + p * ldb;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
    if (e.relu) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = relu_of(crow[j]);
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

template <bool kSet>
void gemm_nt_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc,
                    const double* y) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    const double* yrow = at_offset(y, i * ldc);
    for (std::size_t j = 0; j < n; ++j) {
      nt_store<kSet>(crow, yrow, j, dot_scalar(arow, b + j * ldb, k));
    }
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

template <bool kSet>
DEEPCAT_TARGET_AVX2 inline __m256d c_in_avx2(const double* p) noexcept {
  if constexpr (kSet) {
    return _mm256_setzero_pd();
  } else {
    return _mm256_loadu_pd(p);
  }
}

// A vector store through the ReLU when `relu` is set.
DEEPCAT_TARGET_AVX2 inline void store_avx2(double* p, __m256d v,
                                           bool relu) noexcept {
  _mm256_storeu_pd(p, relu ? _mm256_max_pd(v, _mm256_setzero_pd()) : v);
}

// The ReLU-gradient mask of four outputs against y (simd.hpp: NLE_UQ is
// !(y <= 0) with NaN true, and an all-zeros lane ANDs to +0.0).
DEEPCAT_TARGET_AVX2 inline __m256d relu_grad_avx2(__m256d g,
                                                  const double* y) noexcept {
  const __m256d keep =
      _mm256_cmp_pd(_mm256_loadu_pd(y), _mm256_setzero_pd(), _CMP_NLE_UQ);
  return _mm256_and_pd(keep, g);
}

// C(r) = epilogue(start(r) + lane r of s) for four rows ldc apart: the
// store of four per-row chains that began at +0.0.
DEEPCAT_TARGET_AVX2 inline void add_rows_avx2(__m256d s, double* c,
                                              std::size_t ldc,
                                              const Epilogue& e) noexcept {
  if (ldc == 1 && e.sld <= 1) {
    const __m256d in = e.start == nullptr ? _mm256_setzero_pd()
                       : e.sld == 0       ? _mm256_set1_pd(*e.start)
                                          : _mm256_loadu_pd(e.start);
    store_avx2(c, _mm256_add_pd(in, s), e.relu);
    return;
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, s);
  for (std::size_t r = 0; r < 4; ++r) c[r * ldc] = e.out(e.in(r, 0) + lane[r]);
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

// C(m x 1) = epilogue(start + A(m x k) b) for a row-major A — the n == 1
// case. Lane r of an accumulator is row r's FMA chain from +0.0 in
// ascending p, added to the start value at the store: the arithmetic of
// the leftover-column chains. 4x4 blocks of A are transposed in registers
// so one FMA advances four rows' chains; G accumulators (4G rows) are in
// flight at once.
template <std::size_t G>
DEEPCAT_TARGET_AVX2 void gemm_nn_n1_rows_avx2(std::size_t k, const double* a,
                                              std::size_t lda,
                                              const double* b, std::size_t ldb,
                                              double* c, std::size_t ldc,
                                              const Epilogue& e) noexcept {
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
    add_rows_avx2(acc[g], c + 4 * g * ldc, ldc, e.at(4 * g, 0));
  }
}

DEEPCAT_TARGET_AVX2 void gemm_nn_n1_avx2(std::size_t m, std::size_t k,
                                         const double* a, std::size_t lda,
                                         const double* b, std::size_t ldb,
                                         double* c, std::size_t ldc,
                                         const Epilogue& e) noexcept {
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    gemm_nn_n1_rows_avx2<4>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                            e.at(i, 0));
  }
  for (; i + 4 <= m; i += 4) {
    gemm_nn_n1_rows_avx2<1>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                            e.at(i, 0));
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) s = std::fma(arow[p], b[p * ldb], s);
    c[i * ldc] = e.out(e.in(i, 0) + s);
  }
}

// C(m x 1) = epilogue(start + A^T b) for a (k x m) A — gemm_tn's n == 1
// case. Column p of A^T is row p of A, contiguous across output rows, so
// lane r of an accumulator is row r's FMA chain from +0.0 in ascending p
// with plain vector loads.
DEEPCAT_TARGET_AVX2 void gemm_tn_n1_avx2(std::size_t m, std::size_t k,
                                         const double* a, std::size_t lda,
                                         const double* b, std::size_t ldb,
                                         double* c, std::size_t ldc,
                                         const Epilogue& e) noexcept {
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
      add_rows_avx2(acc[q], c + (i + 4 * q) * ldc, ldc, e.at(i + 4 * q, 0));
    }
  }
  for (; i + 4 <= m; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t p = 0; p < k; ++p) {
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + p * lda + i),
                            _mm256_set1_pd(b[p * ldb]), acc);
    }
    add_rows_avx2(acc, c + i * ldc, ldc, e.at(i, 0));
  }
  for (; i < m; ++i) {
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      s = std::fma(a[p * lda + i], b[p * ldb], s);
    }
    c[i * ldc] = e.out(e.in(i, 0) + s);
  }
}

// The output columns [j, n) that no register tile covers, for R rows of
// the broadcast GEMMs: R per-row FMA chains from +0.0 in ascending p
// advance together, so the FMA latency overlaps (each chain's order is
// unchanged), then C = epilogue(start + s). A's element (r, p) is
// a[r * ars + p * acs]. The avx512 tier shares it.
template <std::size_t R>
DEEPCAT_TARGET_AVX2 inline void fma_chains(std::size_t j, std::size_t n,
                                           std::size_t k, const double* a,
                                           std::size_t ars, std::size_t acs,
                                           const double* b, std::size_t ldb,
                                           double* c, std::size_t ldc,
                                           const Epilogue& e) noexcept {
  for (; j < n; ++j) {
    double s[R] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const double bv = b[p * ldb + j];
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        s[r] = std::fma(a[r * ars + p * acs], bv, s[r]);
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      c[r * ldc + j] = e.out(e.in(r, j) + s[r]);
    }
  }
}

// One R-row x 4V-column register tile of the broadcast GEMMs: each output
// is one FMA chain from its start value in ascending p, stored through the
// epilogue; A's element (r, p) is a[r * ars + p * acs]. With kSums, B's
// rows are also added up per column from +0.0 in ascending p and stored
// into sums like C (the bias-gradient column sums of gemm_tn).
template <std::size_t R, std::size_t V, bool kSums>
DEEPCAT_TARGET_AVX2 inline void tile_avx2_impl(
    std::size_t k, const double* a, std::size_t ars, std::size_t acs,
    const double* b, std::size_t ldb, double* c, std::size_t ldc,
    const Epilogue& e, double* sums) noexcept {
  __m256d acc[R][V];
  __m256d sum[V];
#pragma GCC unroll 8
  for (std::size_t v = 0; v < V; ++v) {
    sum[v] = _mm256_setzero_pd();
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][v] = e.start == nullptr
                      ? _mm256_setzero_pd()
                      : _mm256_loadu_pd(e.start + r * e.sld + 4 * v);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = b + p * ldb;
    const double* ap = a + p * acs;
    __m256d bv[V];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      bv[v] = _mm256_loadu_pd(brow + 4 * v);
      if constexpr (kSums) sum[v] = _mm256_add_pd(sum[v], bv[v]);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d av = _mm256_set1_pd(ap[r * ars]);
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_pd(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      store_avx2(c + r * ldc + 4 * v, acc[r][v], e.relu);
    }
  }
  if constexpr (kSums) {
#pragma GCC unroll 8
    for (std::size_t v = 0; v < V; ++v) {
      const __m256d in = e.start == nullptr ? _mm256_setzero_pd()
                                            : _mm256_loadu_pd(sums + 4 * v);
      _mm256_storeu_pd(sums + 4 * v, _mm256_add_pd(in, sum[v]));
    }
  }
}

template <std::size_t R, std::size_t V>
DEEPCAT_TARGET_AVX2 inline void tile_avx2(std::size_t k, const double* a,
                                          std::size_t ars, std::size_t acs,
                                          const double* b, std::size_t ldb,
                                          double* c, std::size_t ldc,
                                          const Epilogue& e,
                                          double* sums) noexcept {
  if (sums == nullptr) {
    tile_avx2_impl<R, V, false>(k, a, ars, acs, b, ldb, c, ldc, e, nullptr);
  } else {
    tile_avx2_impl<R, V, true>(k, a, ars, acs, b, ldb, c, ldc, e, sums);
  }
}

// gemm_nn (nn) and gemm_tn at n > 1; A's element (i, p) is a[i * ars +
// p * acs], so gemm_nn passes (lda, 1) and gemm_tn (1, lda). 4x8 tiles,
// then gemm_nn's 4x4 tiles, then chains for the leftover columns; rows
// past the last 4-row block take 1-row tiles (32 wide for gemm_nn, then
// 8 wide) and chains. Row block 0's tiles also sum B's columns into `sums`
// (null: none); returns how many leading columns they summed.
DEEPCAT_TARGET_AVX2 std::size_t gemm_bcast_avx2(
    bool nn, std::size_t m, std::size_t n, std::size_t k, const double* a,
    std::size_t ars, std::size_t acs, const double* b, std::size_t ldb,
    double* c, std::size_t ldc, const Epilogue& e, double* sums) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* ai = a + i * ars;
    double* ci = c + i * ldc;
    double* si = i == 0 ? sums : nullptr;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      tile_avx2<4, 2>(k, ai, ars, acs, b + j, ldb, ci + j, ldc, e.at(i, j),
                      at_offset(si, j));
    }
    for (; nn && j + 4 <= n; j += 4) {
      tile_avx2<4, 1>(k, ai, ars, acs, b + j, ldb, ci + j, ldc, e.at(i, j),
                      nullptr);
    }
    fma_chains<4>(j, n, k, ai, ars, acs, b, ldb, ci, ldc, e.at(i, 0));
  }
  for (; i < m; ++i) {
    const double* ai = a + i * ars;
    double* ci = c + i * ldc;
    double* si = i == 0 ? sums : nullptr;
    std::size_t j = 0;
    // A single row (the Twin-Q screen, act) has no neighbouring rows to
    // interleave, so gemm_nn keeps eight accumulators over 32 columns in
    // flight to hide the FMA latency that two cannot.
    for (; nn && j + 32 <= n; j += 32) {
      tile_avx2<1, 8>(k, ai, ars, acs, b + j, ldb, ci + j, ldc, e.at(i, j),
                      nullptr);
    }
    for (; j + 8 <= n; j += 8) {
      tile_avx2<1, 2>(k, ai, ars, acs, b + j, ldb, ci + j, ldc, e.at(i, j),
                      at_offset(si, j));
    }
    fma_chains<1>(j, n, k, ai, ars, acs, b, ldb, ci, ldc, e.at(i, 0));
  }
  return m == 0 ? 0 : n - n % 8;
}

DEEPCAT_TARGET_AVX2 void gemm_nn_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const double* a,
                                      std::size_t lda, const double* b,
                                      std::size_t ldb, double* c,
                                      std::size_t ldc,
                                      const Epilogue& e) noexcept {
  if (n == 1) {
    gemm_nn_n1_avx2(m, k, a, lda, b, ldb, c, ldc, e);
    return;
  }
  gemm_bcast_avx2(true, m, n, k, a, lda, 1, b, ldb, c, ldc, e, nullptr);
}

// Returns how many leading columns' sums it stored (gemm_tn sums the rest).
DEEPCAT_TARGET_AVX2 std::size_t gemm_tn_avx2(std::size_t m, std::size_t n,
                                             std::size_t k, const double* a,
                                             std::size_t lda, const double* b,
                                             std::size_t ldb, double* c,
                                             std::size_t ldc, const Epilogue& e,
                                             double* sums) noexcept {
  if (n == 1) {
    gemm_tn_n1_avx2(m, k, a, lda, b, ldb, c, ldc, e);
    return 0;
  }
  return gemm_bcast_avx2(false, m, n, k, a, 1, lda, b, ldb, c, ldc, e, sums);
}

// One output row of the 1x4 dot kernel: a single vector accumulator over
// p in 4-lane steps, hsum, then the scalar tail in ascending p. The
// blocked kernel below keeps exactly this per-output arithmetic.
template <bool kSet>
DEEPCAT_TARGET_AVX2 void gemm_nt_row_avx2(const double* arow, std::size_t n,
                                          std::size_t k, const double* b,
                                          std::size_t ldb, double* crow,
                                          const double* yrow) noexcept {
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
    nt_store<kSet>(crow, yrow, j + 0, s0);
    nt_store<kSet>(crow, yrow, j + 1, s1);
    nt_store<kSet>(crow, yrow, j + 2, s2);
    nt_store<kSet>(crow, yrow, j + 3, s3);
  }
  for (; j < n; ++j) {
    nt_store<kSet>(crow, yrow, j, dot_avx2(arow, b + j * ldb, k));
  }
}

// C (+)= A * B^T at k == 1: every path of gemm_nt_avx2 computes a single
// product as fma(a, b, +0.0) (an accumulator or hsum of +0.0 plus the FMA
// tail) and adds it to C, here vectorized across the columns.
template <bool kSet>
DEEPCAT_TARGET_AVX2 void gemm_nt_k1_avx2(std::size_t m, std::size_t n,
                                         const double* a, std::size_t lda,
                                         const double* b, std::size_t ldb,
                                         double* c, std::size_t ldc,
                                         const double* y) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t i = 0; i < m; ++i) {
    const double ai = a[i * lda];
    const __m256d av = _mm256_set1_pd(ai);
    double* crow = c + i * ldc;
    const double* yrow = at_offset(y, i * ldc);
    std::size_t j = 0;
    if (ldb == 1) {
      for (; j + 4 <= n; j += 4) {
        const __m256d prod = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + j), zero);
        __m256d v = _mm256_add_pd(c_in_avx2<kSet>(crow + j), prod);
        if (yrow != nullptr) v = relu_grad_avx2(v, yrow + j);
        _mm256_storeu_pd(crow + j, v);
      }
    }
    for (; j < n; ++j) {
      nt_store<kSet>(crow, yrow, j, std::fma(ai, b[j * ldb], 0.0));
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
                                      std::size_t ldc,
                                      const double* y) noexcept {
  if (k == 1) {
    gemm_nt_k1_avx2<kSet>(m, n, a, lda, b, ldb, c, ldc, y);
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
    const double* y0 = at_offset(y, (i + 0) * ldc);
    const double* y1 = at_offset(y, (i + 1) * ldc);
    const double* y2 = at_offset(y, (i + 2) * ldc);
    const double* y3 = at_offset(y, (i + 3) * ldc);
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
      nt_store<kSet>(c0, y0, j, t00);
      nt_store<kSet>(c0, y0, j + 1, t01);
      nt_store<kSet>(c1, y1, j, t10);
      nt_store<kSet>(c1, y1, j + 1, t11);
      nt_store<kSet>(c2, y2, j, t20);
      nt_store<kSet>(c2, y2, j + 1, t21);
      nt_store<kSet>(c3, y3, j, t30);
      nt_store<kSet>(c3, y3, j + 1, t31);
    }
    for (std::size_t j = n4; j < n; ++j) {
      const double* bj = b + j * ldb;
      nt_store<kSet>(c0, y0, j, dot_avx2(a0, bj, k));
      nt_store<kSet>(c1, y1, j, dot_avx2(a1, bj, k));
      nt_store<kSet>(c2, y2, j, dot_avx2(a2, bj, k));
      nt_store<kSet>(c3, y3, j, dot_avx2(a3, bj, k));
    }
  }
  for (; i < m; ++i) {
    gemm_nt_row_avx2<kSet>(a + i * lda, n, k, b, ldb, c + i * ldc,
                           at_offset(y, i * ldc));
  }
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

DEEPCAT_TARGET_AVX512 inline void store_avx512(double* p, __m512d v,
                                               bool relu) noexcept {
  _mm512_storeu_pd(p, relu ? _mm512_max_pd(v, _mm512_setzero_pd()) : v);
}

DEEPCAT_TARGET_AVX512 inline __m512d relu_grad_avx512(
    __m512d g, const double* y) noexcept {
  const __mmask8 keep =
      _mm512_cmp_pd_mask(_mm512_loadu_pd(y), _mm512_setzero_pd(), _CMP_NLE_UQ);
  return _mm512_maskz_mov_pd(keep, g);
}

// C(r) = epilogue(start(r) + lane r of s) for eight rows ldc apart.
DEEPCAT_TARGET_AVX512 inline void add_rows_avx512(__m512d s, double* c,
                                                  std::size_t ldc,
                                                  const Epilogue& e) noexcept {
  if (ldc == 1 && e.sld <= 1) {
    const __m512d in = e.start == nullptr ? _mm512_setzero_pd()
                       : e.sld == 0       ? _mm512_set1_pd(*e.start)
                                          : _mm512_loadu_pd(e.start);
    store_avx512(c, _mm512_add_pd(in, s), e.relu);
    return;
  }
  alignas(64) double lane[8];
  _mm512_store_pd(lane, s);
  for (std::size_t r = 0; r < 8; ++r) c[r * ldc] = e.out(e.in(r, 0) + lane[r]);
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

// C(m x 1) = epilogue(start + A(m x k) b) for a row-major A — the n == 1
// case. Lane r of an accumulator is row r's FMA chain from +0.0 in
// ascending p, added to the start value at the store: the arithmetic of
// the leftover-column chains. 8x8 blocks of A are transposed in registers
// so one FMA advances eight rows' chains; G accumulators (8G rows) are in
// flight at once.
template <std::size_t G>
DEEPCAT_TARGET_AVX512 void gemm_nn_n1_rows_avx512(
    std::size_t k, const double* a, std::size_t lda, const double* b,
    std::size_t ldb, double* c, std::size_t ldc, const Epilogue& e) noexcept {
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
    add_rows_avx512(acc[g], c + 8 * g * ldc, ldc, e.at(8 * g, 0));
  }
}

DEEPCAT_TARGET_AVX512 void gemm_nn_n1_avx512(std::size_t m, std::size_t k,
                                             const double* a, std::size_t lda,
                                             const double* b, std::size_t ldb,
                                             double* c, std::size_t ldc,
                                             const Epilogue& e) noexcept {
  std::size_t i = 0;
  for (; i + 32 <= m; i += 32) {
    gemm_nn_n1_rows_avx512<4>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                              e.at(i, 0));
  }
  for (; i + 8 <= m; i += 8) {
    gemm_nn_n1_rows_avx512<1>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                              e.at(i, 0));
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) s = std::fma(arow[p], b[p * ldb], s);
    c[i * ldc] = e.out(e.in(i, 0) + s);
  }
}

// C(m x 1) = epilogue(start + A^T b) for a (k x m) A — gemm_tn's n == 1
// case, lane r of an accumulator being row r's FMA chain from +0.0 in
// ascending p (see gemm_tn_n1_avx2).
DEEPCAT_TARGET_AVX512 void gemm_tn_n1_avx512(std::size_t m, std::size_t k,
                                             const double* a, std::size_t lda,
                                             const double* b, std::size_t ldb,
                                             double* c, std::size_t ldc,
                                             const Epilogue& e) noexcept {
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
      add_rows_avx512(acc[q], c + (i + 8 * q) * ldc, ldc, e.at(i + 8 * q, 0));
    }
  }
  for (; i + 8 <= m; i += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t p = 0; p < k; ++p) {
      acc = _mm512_fmadd_pd(_mm512_loadu_pd(a + p * lda + i),
                            _mm512_set1_pd(b[p * ldb]), acc);
    }
    add_rows_avx512(acc, c + i * ldc, ldc, e.at(i, 0));
  }
  for (; i < m; ++i) {
    double s = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      s = std::fma(a[p * lda + i], b[p * ldb], s);
    }
    c[i * ldc] = e.out(e.in(i, 0) + s);
  }
}

// One R-row x 8V-column register tile of the broadcast GEMMs, with
// tile_avx2_impl's arithmetic at twice the lane width.
template <std::size_t R, std::size_t V, bool kSums>
DEEPCAT_TARGET_AVX512 inline void tile_avx512_impl(
    std::size_t k, const double* a, std::size_t ars, std::size_t acs,
    const double* b, std::size_t ldb, double* c, std::size_t ldc,
    const Epilogue& e, double* sums) noexcept {
  __m512d acc[R][V];
  __m512d sum[V];
#pragma GCC unroll 16
  for (std::size_t v = 0; v < V; ++v) {
    sum[v] = _mm512_setzero_pd();
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][v] = e.start == nullptr
                      ? _mm512_setzero_pd()
                      : _mm512_loadu_pd(e.start + r * e.sld + 8 * v);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = b + p * ldb;
    const double* ap = a + p * acs;
    __m512d bv[V];
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      bv[v] = _mm512_loadu_pd(brow + 8 * v);
      if constexpr (kSums) sum[v] = _mm512_add_pd(sum[v], bv[v]);
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d av = _mm512_set1_pd(ap[r * ars]);
#pragma GCC unroll 16
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_pd(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      store_avx512(c + r * ldc + 8 * v, acc[r][v], e.relu);
    }
  }
  if constexpr (kSums) {
#pragma GCC unroll 16
    for (std::size_t v = 0; v < V; ++v) {
      const __m512d in = e.start == nullptr ? _mm512_setzero_pd()
                                            : _mm512_loadu_pd(sums + 8 * v);
      _mm512_storeu_pd(sums + 8 * v, _mm512_add_pd(in, sum[v]));
    }
  }
}

template <std::size_t R, std::size_t V>
DEEPCAT_TARGET_AVX512 inline void tile_avx512(
    std::size_t k, const double* a, std::size_t ars, std::size_t acs,
    const double* b, std::size_t ldb, double* c, std::size_t ldc,
    const Epilogue& e, double* sums) noexcept {
  if (sums == nullptr) {
    tile_avx512_impl<R, V, false>(k, a, ars, acs, b, ldb, c, ldc, e, nullptr);
  } else {
    tile_avx512_impl<R, V, true>(k, a, ars, acs, b, ldb, c, ldc, e, sums);
  }
}

// gemm_bcast_avx2's shapes at twice the lane width, plus 8x16 tiles over
// the full 16-column blocks of every 8-row band: 16 zmm accumulators,
// where the 4x16 tiles hold 8 — too few to cover the FMA latency. Every
// output keeps its one FMA chain from its start value, so banded outputs
// are bit-identical to the 4x16 tiles'. The 4x16 tiles cover the bands'
// last n % 16 columns and the rows past the last band, then gemm_nn's 4x8
// tiles and the chains; the 1-row tiles are 128 (gemm_nn) and 16 wide.
DEEPCAT_TARGET_AVX512 std::size_t gemm_bcast_avx512(
    bool nn, std::size_t m, std::size_t n, std::size_t k, const double* a,
    std::size_t ars, std::size_t acs, const double* b, std::size_t ldb,
    double* c, std::size_t ldc, const Epilogue& e, double* sums) noexcept {
  const std::size_t n16 = n - n % 16;
  std::size_t banded = 0;
  for (; banded + 8 <= m; banded += 8) {
    double* si = banded == 0 ? sums : nullptr;
    for (std::size_t j = 0; j < n16; j += 16) {
      tile_avx512<8, 2>(k, a + banded * ars, ars, acs, b + j, ldb,
                        c + banded * ldc + j, ldc, e.at(banded, j),
                        at_offset(si, j));
    }
  }
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* ai = a + i * ars;
    double* ci = c + i * ldc;
    double* si = i == 0 ? sums : nullptr;
    std::size_t j = i < banded ? n16 : 0;
    for (; j + 16 <= n; j += 16) {
      tile_avx512<4, 2>(k, ai, ars, acs, b + j, ldb, ci + j, ldc, e.at(i, j),
                        at_offset(si, j));
    }
    for (; nn && j + 8 <= n; j += 8) {
      tile_avx512<4, 1>(k, ai, ars, acs, b + j, ldb, ci + j, ldc, e.at(i, j),
                        nullptr);
    }
    fma_chains<4>(j, n, k, ai, ars, acs, b, ldb, ci, ldc, e.at(i, 0));
  }
  for (; i < m; ++i) {
    const double* ai = a + i * ars;
    double* ci = c + i * ldc;
    double* si = i == 0 ? sums : nullptr;
    std::size_t j = 0;
    // A single row (the Twin-Q screen, act): sixteen accumulators over 128
    // columns hide the FMA latency that two cannot and stream B row by
    // row, contiguously.
    for (; nn && j + 128 <= n; j += 128) {
      tile_avx512<1, 16>(k, ai, ars, acs, b + j, ldb, ci + j, ldc,
                         e.at(i, j), nullptr);
    }
    for (; j + 16 <= n; j += 16) {
      tile_avx512<1, 2>(k, ai, ars, acs, b + j, ldb, ci + j, ldc, e.at(i, j),
                        at_offset(si, j));
    }
    fma_chains<1>(j, n, k, ai, ars, acs, b, ldb, ci, ldc, e.at(i, 0));
  }
  return m == 0 ? 0 : n16;
}

DEEPCAT_TARGET_AVX512 void gemm_nn_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, double* c,
                                          std::size_t ldc,
                                          const Epilogue& e) noexcept {
  if (n == 1) {
    gemm_nn_n1_avx512(m, k, a, lda, b, ldb, c, ldc, e);
    return;
  }
  gemm_bcast_avx512(true, m, n, k, a, lda, 1, b, ldb, c, ldc, e, nullptr);
}

DEEPCAT_TARGET_AVX512 std::size_t gemm_tn_avx512(
    std::size_t m, std::size_t n, std::size_t k, const double* a,
    std::size_t lda, const double* b, std::size_t ldb, double* c,
    std::size_t ldc, const Epilogue& e, double* sums) noexcept {
  if (n == 1) {
    gemm_tn_n1_avx512(m, k, a, lda, b, ldb, c, ldc, e);
    return 0;
  }
  return gemm_bcast_avx512(false, m, n, k, a, 1, lda, b, ldb, c, ldc, e,
                           sums);
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
                                              std::size_t ldb, double* crow,
                                              const double* yrow) noexcept {
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
    nt_store<kSet>(crow, yrow, j + 0, s0);
    nt_store<kSet>(crow, yrow, j + 1, s1);
    nt_store<kSet>(crow, yrow, j + 2, s2);
    nt_store<kSet>(crow, yrow, j + 3, s3);
  }
  for (; j < n; ++j) {
    nt_store<kSet>(crow, yrow, j, dot_avx512(arow, b + j * ldb, k));
  }
}

// C (+)= A * B^T at k == 1: every path of gemm_nt_avx512 computes a single
// product as fma(a, b, +0.0) (a zeroed accumulator or reduction of +0.0
// plus the FMA tail) and adds it to C, here vectorized across the columns.
template <bool kSet>
DEEPCAT_TARGET_AVX512 void gemm_nt_k1_avx512(std::size_t m, std::size_t n,
                                             const double* a, std::size_t lda,
                                             const double* b, std::size_t ldb,
                                             double* c, std::size_t ldc,
                                             const double* y) noexcept {
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t i = 0; i < m; ++i) {
    const double ai = a[i * lda];
    const __m512d av = _mm512_set1_pd(ai);
    double* crow = c + i * ldc;
    const double* yrow = at_offset(y, i * ldc);
    std::size_t j = 0;
    if (ldb == 1) {
      for (; j + 8 <= n; j += 8) {
        const __m512d prod = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + j), zero);
        __m512d v = _mm512_add_pd(c_in_avx512<kSet>(crow + j), prod);
        if (yrow != nullptr) v = relu_grad_avx512(v, yrow + j);
        _mm512_storeu_pd(crow + j, v);
      }
    }
    for (; j < n; ++j) {
      nt_store<kSet>(crow, yrow, j, std::fma(ai, b[j * ldb], 0.0));
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
                                          std::size_t ldc,
                                          const double* y) noexcept {
  if (k == 1) {
    gemm_nt_k1_avx512<kSet>(m, n, a, lda, b, ldb, c, ldc, y);
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
      // is the scalar tail's s = fma(a, b, s)), then C += s and the mask.
      // With k < 8 the accumulators never left +0.0, and neither does
      // their sum.
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
        const std::size_t row = i + static_cast<std::size_t>(r);
        __m256d v = _mm256_add_pd(c_in_avx2<kSet>(cj), sv);
        if (y != nullptr) v = relu_grad_avx2(v, y + row * ldc + j);
        _mm256_storeu_pd(cj, v);
      }
    }
    for (std::size_t j = n4; j < n; ++j) {
      for (std::size_t r = 0; r < 4; ++r) {
        nt_store<kSet>(cr[r], at_offset(y, (i + r) * ldc), j,
                       dot_avx512(ar[r], b + j * ldb, k));
      }
    }
  }
  for (; i < m; ++i) {
    gemm_nt_row_avx512<kSet>(a + i * lda, n, k, b, ldb, c + i * ldc,
                             at_offset(y, i * ldc));
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

bool vectorized_active() noexcept {
  return active_backend() != Backend::kScalar;
}

bool vector_compiled() noexcept { return DEEPCAT_SIMD_X86 != 0; }

DispatchCounts dispatch_counts() noexcept {
  DispatchCounts counts;
  counts.scalar_calls = g_scalar_calls.load(std::memory_order_relaxed);
  counts.avx2_calls = g_avx2_calls.load(std::memory_order_relaxed);
  counts.avx512_calls = g_avx512_calls.load(std::memory_order_relaxed);
  return counts;
}

void reset_dispatch_counts() noexcept {
  g_scalar_calls.store(0, std::memory_order_relaxed);
  g_avx2_calls.store(0, std::memory_order_relaxed);
  g_avx512_calls.store(0, std::memory_order_relaxed);
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
             std::size_t ldc, const double* bias, bool relu) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
  const Epilogue e = bias == nullptr ? Epilogue{c, ldc, relu}
                                     : Epilogue{bias, 0, relu};
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      gemm_nn_avx512(m, n, k, a, lda, b, ldb, c, ldc, e);
      return;
    case Backend::kAvx2:
      gemm_nn_avx2(m, n, k, a, lda, b, ldb, c, ldc, e);
      return;
    default:
      break;
  }
#endif
  gemm_nn_scalar(m, n, k, a, lda, b, ldb, c, ldc, e);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, Store store, double* b_col_sums) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
  const bool set = store == Store::kSet;
  const Epilogue e{set ? nullptr : c, ldc, false};
  // Leading columns whose sums the tier's tiles already stored.
  std::size_t summed = 0;
  switch (be) {
#if DEEPCAT_SIMD_X86
    case Backend::kAvx512:
      summed = gemm_tn_avx512(m, n, k, a, lda, b, ldb, c, ldc, e, b_col_sums);
      break;
    case Backend::kAvx2:
      summed = gemm_tn_avx2(m, n, k, a, lda, b, ldb, c, ldc, e, b_col_sums);
      break;
#endif
    default:
      if (set) zero_block(m, n, c, ldc);
      gemm_tn_scalar(m, n, k, a, lda, b, ldb, c, ldc);
      break;
  }
  if (b_col_sums != nullptr) {
    col_sums_scalar(k, n - summed, b + summed, ldb, b_col_sums + summed, set);
  }
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, Store store, const double* relu_y) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
  const bool set = store == Store::kSet;
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      set ? gemm_nt_avx512<true>(m, n, k, a, lda, b, ldb, c, ldc, relu_y)
          : gemm_nt_avx512<false>(m, n, k, a, lda, b, ldb, c, ldc, relu_y);
      return;
    case Backend::kAvx2:
      set ? gemm_nt_avx2<true>(m, n, k, a, lda, b, ldb, c, ldc, relu_y)
          : gemm_nt_avx2<false>(m, n, k, a, lda, b, ldb, c, ldc, relu_y);
      return;
    default:
      break;
  }
#endif
  set ? gemm_nt_scalar<true>(m, n, k, a, lda, b, ldb, c, ldc, relu_y)
      : gemm_nt_scalar<false>(m, n, k, a, lda, b, ldb, c, ldc, relu_y);
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

}  // namespace deepcat::common::simd
