#include "gp/gp_regressor.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/simd.hpp"
#include "common/stats.hpp"

namespace deepcat::gp {

nn::Matrix cholesky(nn::Matrix a) {
  const std::size_t n = a.rows();
  if (n != a.cols()) throw std::invalid_argument("cholesky: not square");

  for (double jitter = 0.0; jitter <= 1e-2; jitter = jitter == 0.0 ? 1e-10 : jitter * 100.0) {
    nn::Matrix l(n, n);
    bool ok = true;
    // L is built row by row; every inner reduction is a contiguous dot
    // over already-finished row prefixes, so it runs on the SIMD path.
    for (std::size_t j = 0; j < n && ok; ++j) {
      const double* lrow_j = l.data() + j * n;
      const double diag =
          a(j, j) + jitter - common::simd::sum_squares(lrow_j, j);
      if (diag <= 0.0) {
        ok = false;
        break;
      }
      l(j, j) = std::sqrt(diag);
      // Trailing update: row i reads only finished columns < j of rows i
      // and j, and writes its own L(i,j).
      for (std::size_t i = j + 1; i < n; ++i) {
        const double s =
            a(i, j) - common::simd::dot(l.data() + i * n, lrow_j, j);
        l(i, j) = s / l(j, j);
      }
    }
    if (ok) return l;
  }
  throw std::runtime_error("cholesky: matrix not positive definite");
}

std::vector<double> cholesky_solve(const nn::Matrix& l,
                                   std::span<const double> b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("cholesky_solve: size");
  std::vector<double> z(n), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = b[i] - common::simd::dot(l.data() + i * n, z.data(), i);
    z[i] = s / l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

GpRegressor::GpRegressor(std::unique_ptr<Kernel> kernel, double noise_var)
    : kernel_(std::move(kernel)), noise_var_(noise_var) {
  if (!kernel_) throw std::invalid_argument("GpRegressor: null kernel");
  if (noise_var_ < 0.0) throw std::invalid_argument("GpRegressor: noise < 0");
}

void GpRegressor::set_obs(const obs::Sink& sink) { obs_ = sink; }

void GpRegressor::fit(const nn::Matrix& x, std::span<const double> y) {
  const std::size_t n = x.rows();
  if (n == 0) throw std::invalid_argument("GpRegressor::fit: no samples");
  if (y.size() != n) throw std::invalid_argument("GpRegressor::fit: |y| != n");

  const auto span = obs_.scope("gp.fit");
  const auto fit_start = std::chrono::steady_clock::now();

  y_mean_ = common::mean(y);
  y_std_ = common::stddev(y);
  if (y_std_ < 1e-12) y_std_ = 1.0;

  std::vector<double> y_norm(n);
  for (std::size_t i = 0; i < n; ++i) y_norm[i] = (y[i] - y_mean_) / y_std_;

  nn::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = (*kernel_)(x.row(i), x.row(j));
      k(i, j) = v;
      k(j, i) = v;
    }
    k(i, i) += noise_var_;
  }

  train_x_ = x;
  chol_ = cholesky(std::move(k));
  alpha_ = cholesky_solve(chol_, y_norm);
  y_norm_ = std::move(y_norm);

  if (obs_.metrics != nullptr) {
    obs_.metrics->counter("gp.fits").add(1);
    obs_.metrics->gauge("gp.fit_points").set(static_cast<double>(n));
    // Wall time is scheduling-dependent by nature; flag it so the
    // deterministic snapshot export skips it.
    obs_.metrics
        ->gauge("gp.fit_seconds", /*deterministic=*/false)
        .set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           fit_start)
                 .count());
  }
}

double GpRegressor::log_marginal_likelihood() const {
  if (!fitted()) {
    throw std::logic_error("GpRegressor::log_marginal_likelihood before fit");
  }
  const std::size_t n = train_x_.rows();
  const double data_fit = common::simd::dot(y_norm_.data(), alpha_.data(), n);
  double log_det_half = 0.0;
  for (std::size_t i = 0; i < n; ++i) log_det_half += std::log(chol_(i, i));
  constexpr double kLog2Pi = 1.8378770664093453;
  return -0.5 * data_fit - log_det_half -
         0.5 * static_cast<double>(n) * kLog2Pi;
}

GpPrediction GpRegressor::predict(std::span<const double> x) const {
  if (!fitted()) throw std::logic_error("GpRegressor::predict before fit");
  const std::size_t n = train_x_.rows();
  std::vector<double> k_star(n);
  for (std::size_t i = 0; i < n; ++i) {
    k_star[i] = (*kernel_)(train_x_.row(i), x);
  }

  const double mean = common::simd::dot(k_star.data(), alpha_.data(), n);

  // v = L^-1 k*, var = k(x,x) - v.v
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s =
        k_star[i] - common::simd::dot(chol_.data() + i * n, v.data(), i);
    v[i] = s / chol_(i, i);
  }
  const double var =
      (*kernel_)(x, x) - common::simd::sum_squares(v.data(), n);

  GpPrediction out;
  out.mean = mean * y_std_ + y_mean_;
  out.variance = std::max(var, 0.0) * y_std_ * y_std_;
  return out;
}

}  // namespace deepcat::gp
