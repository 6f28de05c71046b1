// Vectorized numeric kernels with runtime dispatch — the single home for
// every SIMD code path in the library (SimSIMD-style: one scalar reference
// implementation per kernel, one implementation per ISA tier, and a
// dispatcher that picks at runtime). Everything above this layer (Matrix,
// Adam, the GP solver) calls these raw-pointer kernels and never touches
// intrinsics.
//
// ISA ladder: scalar < avx2+fma < avx512. Dispatch resolves the active
// tier per call from, in priority order:
//   1. compile-time: non-x86 targets, or -DDEEPCAT_DISABLE_SIMD=ON, build
//      only the scalar kernels;
//   2. process start: DEEPCAT_SIMD=scalar|avx2|avx512 caps the ladder
//      (values above what the CPU supports clamp down);
//   3. runtime: force_backend() lowers the cap
//      programmatically (used by the property tests and bench_micro to
//      compare tiers in one process) — they can never raise it above the
//      startup cap;
//   4. otherwise the highest tier the CPU supports runs.
//
// Numerical contract: vectorized kernels may reassociate reductions and
// fuse mul+add into FMA, so results can differ between tiers in the
// last bits. The fusing is explicit (intrinsics, std::fma in the scalar
// tails), never left to compiler contraction, so a tier's bits do not
// depend on the optimization level. The property tests bound the
// divergence at 1e-12 for the shapes the library uses. Broadcast-style
// GEMM kernels (gemm_nn/gemm_tn) keep each output element's FMA chain in
// ascending-k order on every tier, so those agree
// bit-for-bit across vector tiers; dot-style reductions (dot, gemm_nt)
// use per-tier accumulator trees and only meet the 1e-12 contract.
#pragma once

#include <cstddef>

namespace deepcat::common::simd {

// ---- ISA ladder ----------------------------------------------------------

/// Dispatch tiers, ordered: a numerically-larger Backend is a wider ISA.
enum class Backend : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The tier kernels dispatch to right now (CPU capability, env cap and
/// programmatic cap all applied).
[[nodiscard]] Backend active_backend() noexcept;

/// Highest tier the CPU + compile flags support, ignoring the DEEPCAT_SIMD
/// cap and force_backend(). What `deepcat info`
/// reports as "detected".
[[nodiscard]] Backend detected_backend() noexcept;

/// Highest tier selectable in this process: detected_backend() clamped by
/// the environment cap fixed at startup. force_backend() can pick any tier
/// at or below this.
[[nodiscard]] Backend max_backend() noexcept;

/// True when `b` can be activated via force_backend() in this process.
[[nodiscard]] bool backend_selectable(Backend b) noexcept;

/// Stable label for a tier: "scalar", "avx2+fma" or "avx512".
[[nodiscard]] const char* backend_label(Backend b) noexcept;

/// Label of the active tier — backend_label(active_backend()).
[[nodiscard]] const char* backend_name() noexcept;

/// Comma-joined ladder of detected tiers, lowest first, e.g.
/// "scalar,avx2+fma,avx512" on an AVX-512 machine.
[[nodiscard]] const char* isa_ladder() noexcept;

/// Caps dispatch at `cap` until changed (clamped to max_backend()).
/// Backend::kAvx512 removes the programmatic cap. Not thread-safe against
/// concurrent kernel calls; toggle only from a single thread with no
/// kernels in flight.
void force_backend(Backend cap) noexcept;

/// True when any vector tier is the active backend.
[[nodiscard]] bool vectorized_active() noexcept;

/// True when the vector kernels were compiled in at all (x86 target and no
/// -DDEEPCAT_DISABLE_SIMD). vectorized_active() can still be false at
/// runtime (CPU support, env caps, force_backend()).
[[nodiscard]] bool vector_compiled() noexcept;

// ---- Backend-dispatch accounting ----------------------------------------
// Counts how many *chunky* kernel calls resolved to each tier — the GEMM
// family and the fused Adam steps, one increment per call. The tiny
// level-1 primitives (dot/axpy/sum) are deliberately uncounted: dot runs
// per matrix row inside the GP Cholesky, so even a relaxed fetch_add
// there would be a measurable hot-path tax. Tests, bench_micro and the
// perfbench probe read these totals.

struct DispatchCounts {
  unsigned long long scalar_calls = 0;
  unsigned long long avx2_calls = 0;
  unsigned long long avx512_calls = 0;
  /// Always 0 (there is no packed GEMM path); perfbench/probe.cpp reads it.
  unsigned long long packed_calls = 0;
};

/// Snapshot of the process-wide dispatch counters.
[[nodiscard]] DispatchCounts dispatch_counts() noexcept;

/// Zeroes all counters (tests and bench runs isolate their own windows).
void reset_dispatch_counts() noexcept;

// ---- Level-1 primitives -------------------------------------------------

/// Inner product sum(a[i] * b[i]).
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;

/// Squared Euclidean distance sum((a[i] - b[i])^2).
[[nodiscard]] double squared_distance(const double* a, const double* b,
                                      std::size_t n) noexcept;

// ---- Batched distance kernels -------------------------------------------
// One query vector against a dense row-major matrix — the retrieval
// index's k-NN scan (SimSIMD-style: the whole matrix sweep is one
// dispatched call, so these count toward DispatchCounts like the GEMM
// family). Per-row reductions use each tier's accumulator tree and meet
// the 1e-12 contract; the cosine epilogue is the identical scalar formula
// on every tier.

/// out[r] = sum_j (query[j] - rows[r*dim + j])^2 for r in [0, n_rows).
void squared_distances(const double* query, const double* rows,
                       std::size_t n_rows, std::size_t dim,
                       double* out) noexcept;

/// out[r] = 1 - dot(query, row_r) / sqrt(|query|^2 * |row_r|^2), the
/// cosine distance in [0, 2]. A zero-norm query or row yields 1.0 (no
/// directional information — maximally non-similar without being
/// anti-aligned) on every backend.
void cosine_distances(const double* query, const double* rows,
                      std::size_t n_rows, std::size_t dim,
                      double* out) noexcept;

/// sum(a[i]).
[[nodiscard]] double sum(const double* a, std::size_t n) noexcept;

/// sum(a[i]^2) — the gradient-clipping reduction.
[[nodiscard]] double sum_squares(const double* a, std::size_t n) noexcept;

/// y[i] += alpha * x[i].
void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept;

/// Fused Adam parameter update over one flat tensor:
///   g      = grad[i] * scale
///   m[i]   = beta1 * m[i] + (1 - beta1) * g
///   v[i]   = beta2 * v[i] + (1 - beta2) * g^2
///   value[i] -= lr * (m[i] / bc1) / (sqrt(v[i] / bc2) + eps)
/// Identical formula on every backend (bias corrections passed as the
/// divisors bc1/bc2, exactly like the scalar reference). When bc1 == 1.0
/// (1 - 0.9^t rounds to 1.0 for every t >= 356) the m[i] / bc1 divide is
/// skipped on every tier: x / 1.0 == x exactly, so no bit changes.
void adam_update(double* value, const double* grad, double* m, double* v,
                 std::size_t n, double scale, double beta1, double beta2,
                 double bc1, double bc2, double lr, double eps) noexcept;

/// One Adam-managed tensor: parameter values, gradients and both moment
/// vectors, all `n` elements long. The pointers alias nothing else passed
/// to the same kernel call.
struct AdamTensor {
  double* value;
  const double* grad;
  double* m;
  double* v;
  std::size_t n;
};

/// Whole-step Adam with fused global gradient-norm clipping over a set of
/// tensors. Accumulates sum(grad^2) across the tensors in array order,
/// derives scale = min(1, grad_clip / ||grad||) (grad_clip <= 0 disables
/// clipping), then applies adam_update to every tensor — one kernel call
/// per optimizer step instead of a separate norm pass per tensor. The
/// reduction order and per-element formula match the unfused composition
/// exactly, so results are bit-identical on each backend.
void adam_update_clipped(const AdamTensor* tensors, std::size_t count,
                         double grad_clip, double beta1, double beta2,
                         double bc1, double bc2, double lr,
                         double eps) noexcept;

/// dst[i] = tau * src[i] + (1 - tau) * dst[i] — the target-network soft
/// update. Both products and the sum round separately (no FMA) on every
/// tier, so the vector tiers match the scalar formula bit for bit.
void soft_update(double* dst, const double* src, std::size_t n,
                 double tau) noexcept;

// ---- Output store mode ----------------------------------------------------

/// How a kernel combines its result with its output. kAdd accumulates
/// (out += result). kSet overwrites, bit for bit as if `out` had been
/// zero-filled first and then accumulated into: register accumulators
/// start at +0.0 instead of the stored value, and `out += s` epilogues
/// store +0.0 + s. Under kSet the output's old contents are never read.
enum class Store : int { kAdd = 0, kSet = 1 };

// ---- Element-wise layer kernels ------------------------------------------
// The dense-layer epilogues. Branch-free on every tier (a compare mask, not
// a data-dependent jump: hidden activations have random signs, so a branch
// mispredicts about half the time) and bit-identical to the scalar formulas
// on every tier. Uncounted in DispatchCounts, like the level-1 primitives.

/// x[i] = x[i] > 0 ? x[i] : +0.0 in place. -0.0 and NaN map to +0.0.
void relu(double* x, std::size_t n) noexcept;

/// out[i] = y[i] <= 0 ? +0.0 : g[i] — the ReLU gradient through the
/// activation OUTPUT y. A NaN y keeps g. `out` may alias `g`.
void relu_grad(const double* g, const double* y, double* out,
               std::size_t n) noexcept;

/// out[j] += s_j where s_j = sum_r a[r*lda + j], summed from +0.0 in
/// ascending row order — the bias-gradient column sum, vectorized across
/// columns with each column's addition order unchanged.
void col_sums_add(std::size_t rows, std::size_t cols, const double* a,
                  std::size_t lda, double* out,
                  Store store = Store::kAdd) noexcept;

// ---- Level-3 GEMM kernels ----------------------------------------------
// All accumulate into C (C += ...), so the caller controls the epilogue
// start state: bias-broadcast rows for the fused linear-layer forward, or
// Store::kSet (gemm_tn, gemm_nt) for a plain product without a separate
// zero-fill. Leading dimensions are element strides. Every variant
// dispatches across the ISA ladder.
//
// The 1-wide shapes of a critic's 128->1 head take exact fast paths on the
// vector tiers, each keeping every output's arithmetic: n == 1 (gemm_nn,
// gemm_tn) is one FMA chain per row from +0.0 in ascending k, then C += s,
// with the rows vectorized across lanes; k == 1 (gemm_nt) is
// C += fma(a, b, +0.0). A single-row gemm_nn (the Twin-Q screen, act)
// keeps sixteen (avx512) or eight (avx2) accumulators in flight instead of
// two, each column still one chain from its stored value.

/// C(m x n) += A(m x k) * B(k x n). Register-blocked broadcast-A /
/// streamed-B micro-kernel on the vector tiers (4x8 on avx2; 8x16 over
/// 8-row bands, 4x16 for the rest, on avx512; gemm_tn likewise); the
/// scalar path is the cache-friendly ikj loop with a zero-skip on A
/// (which makes post-ReLU activations cheap).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) noexcept;

/// C(m x n) += A^T * B where A is stored (k x m): C[i][j] += A[p][i]*B[p][j].
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, Store store = Store::kAdd) noexcept;

/// C(m x n) += A * B^T where B is stored (n x k): C[i][j] += dot(A[i], B[j]).
/// The vector tiers block 4 A rows x 4 B rows (avx512) or 4 x 2 (avx2, whose
/// 16 registers cannot hold 16 accumulators), so each load feeds several
/// FMAs. Every output keeps the per-output arithmetic of a 1x4 dot kernel:
/// one vector accumulator over p in lane-width steps, the tier's horizontal
/// sum, the scalar tail in ascending p, then C += s. Columns past the last
/// multiple of 4 take dot(). Blocking therefore changes no bits.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, Store store = Store::kAdd) noexcept;

}  // namespace deepcat::common::simd
