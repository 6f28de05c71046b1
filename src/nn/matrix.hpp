// Row-major dense matrix of doubles: the numeric workhorse under the NN
// library and the Gaussian-process regressor. BLAS-free by design (offline
// build); the GEMM entry points dispatch to the register-blocked AVX2+FMA
// micro-kernels in common/simd.hpp (scalar fallback always available), so
// the actor/critic updates run as fast as the host allows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

namespace deepcat::nn {

/// Matrix storage allocator: cache-line (64-byte) aligned, so the GEMMs'
/// zmm loads and stores of a row whose length is a multiple of 8 (the
/// 128- and 32-wide layers) never straddle two cache lines. glibc's
/// 16-byte malloc alignment left that to allocation history: the same
/// 64x128x128 dX GEMM ran ≈1.6x slower at a 16-byte offset. It
/// over-allocates one cache line from the plain operator new and keeps the
/// distance back to it in the byte before the block; an over-aligned
/// operator new (memalign) fragmented the serving heap.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    auto* raw =
        static_cast<unsigned char*>(::operator new(n * sizeof(T) + kAlign));
    // The first aligned address past raw: 1..kAlign bytes in.
    const std::size_t lead =
        kAlign - reinterpret_cast<std::uintptr_t>(raw) % kAlign;
    raw[lead - 1] = static_cast<unsigned char>(lead);
    return reinterpret_cast<T*>(raw + lead);
  }
  void deallocate(T* p, std::size_t) noexcept {
    auto* block = reinterpret_cast<unsigned char*>(p);
    ::operator delete(block - block[-1]);
  }
  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);
  /// Filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value);
  /// From nested initializer list; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// 1 x n row vector view of a span.
  static Matrix row_vector(std::span<const double> values);
  /// n x 1 column vector.
  static Matrix col_vector(std::span<const double> values);
  /// n x n identity.
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<double> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

  /// Mutable/const view of one row.
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// Reshapes to rows x cols, keeping the allocation when its capacity
  /// suffices (a workspace sized once for a 64-row batch serves 1-row
  /// calls and the next batch without reallocating). Element values are
  /// unspecified afterwards; callers overwrite or zero them.
  void resize(std::size_t rows, std::size_t cols);

  void fill(double value) noexcept;
  void set_zero() noexcept { fill(0.0); }

  /// In-place element-wise operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm.
  [[nodiscard]] double norm() const noexcept;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, CacheAlignedAllocator<double>> data_;
};

[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator*(Matrix a, double s);
[[nodiscard]] Matrix operator*(double s, Matrix a);

/// C = A * B (register-blocked, SIMD-dispatched). Dimension mismatch throws.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B without materializing A^T.
[[nodiscard]] Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T without materializing B^T.
[[nodiscard]] Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Element-wise nonlinearity applied in a GEMM epilogue / activation layer.
enum class Activation { kNone, kRelu, kTanh, kSigmoid };

/// Fused dense-layer forward: act(x * w + bias). The bias row
/// (1 x w.cols()) is the GEMM's start value and a ReLU is applied at its
/// store (simd::gemm_nn), so no intermediate x*w or bias-broadcast matrix
/// is ever materialized; Tanh and Sigmoid run one libm pass after it.
[[nodiscard]] Matrix matmul_bias_act(const Matrix& x, const Matrix& w,
                                     const Matrix& bias, Activation act);

/// matmul_bias_act into `out` (resized, allocation reused). `out` must not
/// alias `x`.
void matmul_bias_act_into(const Matrix& x, const Matrix& w,
                          const Matrix& bias, Activation act, Matrix& out);

/// y = act(y) element-wise, in place. ReLU maps -0.0 and NaN to +0.0, as
/// the fused forward's store does.
void apply_activation(Matrix& y, Activation act) noexcept;

/// grad *= act'(y) element-wise, where `y` is the activation OUTPUT (all
/// supported activations have output-expressible derivatives). The ReLU
/// gradient is kept iff !(y <= 0), as gemm_nt's fused mask keeps it.
void apply_activation_grad(Matrix& grad, const Matrix& y,
                           Activation act) noexcept;

/// out = grad * act'(y): apply_activation_grad without modifying `grad`
/// (`out` is resized, its allocation reused; it may be `grad` itself).
void apply_activation_grad(const Matrix& grad, const Matrix& y,
                           Activation act, Matrix& out);

/// Element-wise (Hadamard) product.
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);

/// Adds row vector `bias` (1 x cols) to every row of `m` in place.
void add_row_broadcast(Matrix& m, const Matrix& bias);

/// Column-wise sum producing a 1 x cols row vector.
[[nodiscard]] Matrix col_sums(const Matrix& m);

}  // namespace deepcat::nn
