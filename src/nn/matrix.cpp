#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/simd.hpp"

namespace deepcat::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::row_vector(std::span<const double> values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::col_vector(std::span<const double> values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::fill(double value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {
void require_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("Matrix ") + op +
                                ": shape mismatch");
  }
}
}  // namespace

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(*this, other, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(*this, other, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // Cache-blocked: both the source row walk and the destination column
  // walk stay inside one 32x32 tile (8 KiB working set) at a time.
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < rows_; r0 += kTile) {
    const std::size_t r_end = std::min(rows_, r0 + kTile);
    for (std::size_t c0 = 0; c0 < cols_; c0 += kTile) {
      const std::size_t c_end = std::min(cols_, c0 + kTile);
      for (std::size_t r = r0; r < r_end; ++r) {
        const double* src = data_.data() + r * cols_;
        for (std::size_t c = c0; c < c_end; ++c) {
          t.data_[c * rows_ + r] = src[c];
        }
      }
    }
  }
  return t;
}

double Matrix::norm() const noexcept {
  return std::sqrt(common::simd::sum_squares(data_.data(), data_.size()));
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  Matrix c(a.rows(), b.cols());
  common::simd::gemm_nn(a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  matmul_tn_add(a, b, c);
  return c;
}

void matmul_tn_add(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_tn: inner dimension mismatch");
  }
  if (c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("matmul_tn_add: output shape mismatch");
  }
  common::simd::gemm_tn(a.cols(), b.cols(), a.rows(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_nt_into(a, b, c);
  return c;
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt: inner dimension mismatch");
  }
  // The kernel accumulates, so the output starts from +0.0 exactly as a
  // freshly allocated matrix would.
  c.resize(a.rows(), b.rows());
  c.set_zero();
  common::simd::gemm_nt(a.rows(), b.rows(), a.cols(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
}

Matrix matmul_bias_act(const Matrix& x, const Matrix& w, const Matrix& bias,
                       Activation act) {
  Matrix c;
  matmul_bias_act_into(x, w, bias, act, c);
  return c;
}

void matmul_bias_act_into(const Matrix& x, const Matrix& w,
                          const Matrix& bias, Activation act, Matrix& out) {
  if (x.cols() != w.rows()) {
    throw std::invalid_argument("matmul_bias_act: inner dimension mismatch");
  }
  if (bias.rows() != 1 || bias.cols() != w.cols()) {
    throw std::invalid_argument("matmul_bias_act: bias shape mismatch");
  }
  if (&out == &x) {
    throw std::invalid_argument("matmul_bias_act: output aliases input");
  }
  out.resize(x.rows(), w.cols());
  // Seed every output row with the bias so the GEMM accumulates on top of
  // it — the broadcast costs one streaming write instead of a second pass.
  for (std::size_t r = 0; r < out.rows(); ++r) {
    std::copy(bias.row(0).begin(), bias.row(0).end(), out.row(r).begin());
  }
  common::simd::gemm_nn(x.rows(), w.cols(), x.cols(), x.data(), x.cols(),
                        w.data(), w.cols(), out.data(), out.cols());
  apply_activation(out, act);
}

void apply_activation(Matrix& y, Activation act) noexcept {
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      common::simd::relu(y.data(), y.size());
      break;
    case Activation::kTanh:
      for (double& v : y.flat()) v = std::tanh(v);
      break;
    case Activation::kSigmoid:
      for (double& v : y.flat()) v = 1.0 / (1.0 + std::exp(-v));
      break;
  }
}

void apply_activation_grad(Matrix& grad, const Matrix& y,
                           Activation act) noexcept {
  const std::size_t n = grad.size();
  double* g = grad.data();
  const double* v = y.data();
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      common::simd::relu_grad(g, v, g, n);
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) g[i] *= 1.0 - v[i] * v[i];
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) g[i] *= v[i] * (1.0 - v[i]);
      break;
  }
}

void apply_activation_grad(const Matrix& grad, const Matrix& y,
                           Activation act, Matrix& out) {
  require_same_shape(grad, y, "apply_activation_grad");
  if (&out != &grad) {
    out.resize(grad.rows(), grad.cols());
    if (act == Activation::kRelu) {
      // One pass: read grad and y, write out.
      common::simd::relu_grad(grad.data(), y.data(), out.data(), grad.size());
      return;
    }
    std::copy(grad.flat().begin(), grad.flat().end(), out.flat().begin());
  }
  apply_activation_grad(out, y, act);
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "hadamard");
  Matrix c = a;
  for (std::size_t i = 0; i < c.size(); ++i) c.flat()[i] *= b.flat()[i];
  return c;
}

void add_row_broadcast(Matrix& m, const Matrix& bias) {
  if (bias.rows() != 1 || bias.cols() != m.cols()) {
    throw std::invalid_argument("add_row_broadcast: bias shape mismatch");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += bias(0, c);
  }
}

Matrix col_sums(const Matrix& m) {
  Matrix s(1, m.cols());
  col_sums_add(m, s);
  return s;
}

void col_sums_add(const Matrix& m, Matrix& s) {
  if (s.rows() != 1 || s.cols() != m.cols()) {
    throw std::invalid_argument("col_sums_add: output shape mismatch");
  }
  common::simd::col_sums_add(m.rows(), m.cols(), m.data(), m.cols(),
                             s.data());
}

}  // namespace deepcat::nn
