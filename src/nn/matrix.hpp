// Row-major dense matrix of doubles: the numeric workhorse under the NN
// library and the Gaussian-process regressor. BLAS-free by design (offline
// build); the GEMM entry points dispatch to the register-blocked AVX2+FMA
// micro-kernels in common/simd.hpp (scalar fallback always available), so
// the actor/critic updates run as fast as the host allows.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace deepcat::nn {

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
  std::vector<double> data_;
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

// Workspace forms of the products above, for callers that own their
// output: `c` is resized (its allocation reused) and overwritten, or
// accumulated into by the `_add` forms, with arithmetic bit-identical to
// the allocating calls.

/// c = A * B^T.
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c);
/// c += A^T * B; c must already be (a.cols() x b.cols()).
void matmul_tn_add(const Matrix& a, const Matrix& b, Matrix& c);

/// Element-wise nonlinearity applied in a GEMM epilogue / activation layer.
enum class Activation { kNone, kRelu, kTanh, kSigmoid };

/// Fused dense-layer forward: act(x * w + bias) in one pass. The bias row
/// (1 x w.cols()) seeds the accumulators, so no intermediate x*w or
/// bias-broadcast matrix is ever materialized.
[[nodiscard]] Matrix matmul_bias_act(const Matrix& x, const Matrix& w,
                                     const Matrix& bias, Activation act);

/// matmul_bias_act into `out` (resized, allocation reused). `out` must not
/// alias `x`.
void matmul_bias_act_into(const Matrix& x, const Matrix& w,
                          const Matrix& bias, Activation act, Matrix& out);

/// y = act(y) element-wise, in place. ReLU is branch-free
/// (simd::relu): -0.0 and NaN map to +0.0.
void apply_activation(Matrix& y, Activation act) noexcept;

/// grad *= act'(y) element-wise, where `y` is the activation OUTPUT (all
/// supported activations have output-expressible derivatives). The ReLU
/// gradient is kept iff !(y <= 0), branch-free (simd::relu_grad).
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

/// s += col_sums(m); s must already be 1 x m.cols().
void col_sums_add(const Matrix& m, Matrix& s);

}  // namespace deepcat::nn
