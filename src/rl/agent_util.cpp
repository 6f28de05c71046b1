#include "rl/agent_util.hpp"

#include <algorithm>
#include <stdexcept>

namespace deepcat::rl {

namespace {
template <typename Selector>
void pack(std::span<const Transition* const> batch, Selector select,
          nn::Matrix& out) {
  if (batch.empty()) throw std::invalid_argument("pack: empty batch");
  const auto& first = select(*batch.front());
  out.resize(batch.size(), first.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    const auto& v = select(*batch[r]);
    if (v.size() != out.cols()) {
      throw std::invalid_argument("pack: ragged transition vectors");
    }
    std::copy(v.begin(), v.end(), out.row(r).begin());
  }
}

const std::vector<double>& state(const Transition& t) { return t.state; }
const std::vector<double>& action(const Transition& t) { return t.action; }
const std::vector<double>& next_state(const Transition& t) {
  return t.next_state;
}
}  // namespace

void states_of(std::span<const Transition* const> batch, nn::Matrix& out) {
  pack(batch, state, out);
}

void actions_of(std::span<const Transition* const> batch, nn::Matrix& out) {
  pack(batch, action, out);
}

void next_states_of(std::span<const Transition* const> batch,
                    nn::Matrix& out) {
  pack(batch, next_state, out);
}

nn::Matrix states_of(std::span<const Transition* const> batch) {
  nn::Matrix m;
  states_of(batch, m);
  return m;
}

nn::Matrix actions_of(std::span<const Transition* const> batch) {
  nn::Matrix m;
  actions_of(batch, m);
  return m;
}

nn::Matrix next_states_of(std::span<const Transition* const> batch) {
  nn::Matrix m;
  next_states_of(batch, m);
  return m;
}

nn::Matrix rewards_of(std::span<const Transition* const> batch) {
  nn::Matrix m(batch.size(), 1);
  for (std::size_t r = 0; r < batch.size(); ++r) m(r, 0) = batch[r]->reward;
  return m;
}

nn::Matrix dones_of(std::span<const Transition* const> batch) {
  nn::Matrix m(batch.size(), 1);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    m(r, 0) = batch[r]->done ? 1.0 : 0.0;
  }
  return m;
}

nn::Matrix concat_cols(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix c;
  concat_cols(a, b, c);
  return c;
}

void concat_cols(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& out) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("concat_cols: row mismatch");
  }
  out.resize(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto dst = out.row(r);
    std::copy(a.row(r).begin(), a.row(r).end(), dst.begin());
    std::copy(b.row(r).begin(), b.row(r).end(),
              dst.begin() + static_cast<std::ptrdiff_t>(a.cols()));
  }
}

nn::Matrix right_cols(const nn::Matrix& m, std::size_t cols) {
  nn::Matrix out;
  right_cols(m, cols, out);
  return out;
}

void right_cols(const nn::Matrix& m, std::size_t cols, nn::Matrix& out) {
  if (cols > m.cols()) throw std::invalid_argument("right_cols: too wide");
  out.resize(m.rows(), cols);
  const std::size_t offset = m.cols() - cols;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto src = m.row(r);
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(offset), src.end(),
              out.row(r).begin());
  }
}

}  // namespace deepcat::rl
