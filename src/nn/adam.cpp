#include "nn/adam.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/simd.hpp"

namespace deepcat::nn {

Adam::Adam(std::vector<Param> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value->rows(), p.value->cols());
    v_.emplace_back(p.value->rows(), p.value->cols());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  // Rebuilt per step (the bound matrices may have been reassigned), into a
  // kept vector so a warm step allocates nothing.
  tensors_.clear();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    tensors_.push_back({params_[i].value->data(), params_[i].grad->data(),
                        m_[i].data(), v_[i].data(), params_[i].value->size()});
  }
  common::simd::adam_update_clipped(tensors_.data(), tensors_.size(),
                                    config_.grad_clip, config_.beta1,
                                    config_.beta2, bc1, bc2, config_.lr,
                                    config_.eps);
}

void Adam::restore_state(const std::vector<Matrix>& m,
                         const std::vector<Matrix>& v,
                         std::size_t step_count) {
  if (m.size() != m_.size() || v.size() != v_.size()) {
    throw std::runtime_error("Adam::restore_state: tensor count mismatch");
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (m[i].rows() != m_[i].rows() || m[i].cols() != m_[i].cols() ||
        v[i].rows() != v_[i].rows() || v[i].cols() != v_[i].cols()) {
      throw std::runtime_error("Adam::restore_state: shape mismatch");
    }
  }
  m_ = m;
  v_ = v;
  t_ = step_count;
}

void Adam::save(std::ostream& os) const {
  os << t_ << ' ' << m_.size() << '\n';
  os.precision(17);
  for (std::size_t i = 0; i < m_.size(); ++i) {
    os << m_[i].rows() << ' ' << m_[i].cols() << '\n';
    for (double x : m_[i].flat()) os << x << ' ';
    os << '\n';
    for (double x : v_[i].flat()) os << x << ' ';
    os << '\n';
  }
}

void Adam::load(std::istream& is) {
  std::size_t t = 0, count = 0;
  is >> t >> count;
  if (count != m_.size()) {
    throw std::runtime_error("Adam::load: moment tensor count mismatch");
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    std::size_t r = 0, c = 0;
    is >> r >> c;
    if (r != m_[i].rows() || c != m_[i].cols()) {
      throw std::runtime_error("Adam::load: shape mismatch");
    }
    for (double& x : m_[i].flat()) is >> x;
    for (double& x : v_[i].flat()) is >> x;
  }
  if (!is) throw std::runtime_error("Adam::load: truncated stream");
  t_ = t;
}

}  // namespace deepcat::nn
