#include "rl/ddpg.hpp"

#include <stdexcept>

#include "common/math_util.hpp"
#include "rl/agent_util.hpp"

namespace deepcat::rl {

namespace {

std::vector<std::size_t> net_dims(std::size_t in,
                                  const std::vector<std::size_t>& hidden,
                                  std::size_t out) {
  std::vector<std::size_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out);
  return dims;
}

void validate(const DdpgConfig& c) {
  if (c.state_dim == 0 || c.action_dim == 0) {
    throw std::invalid_argument("DdpgConfig: zero state/action dim");
  }
  if (c.batch_size == 0) throw std::invalid_argument("DdpgConfig: batch 0");
}

}  // namespace

DdpgAgent::DdpgAgent(DdpgConfig config, common::Rng& rng)
    : config_((validate(config), config)),
      actor_(net_dims(config_.state_dim, config_.hidden, config_.action_dim),
             rng, nn::OutputActivation::kSigmoid),
      actor_target_(actor_),
      critic_(net_dims(config_.state_dim + config_.action_dim, config_.hidden,
                       1),
              rng, nn::OutputActivation::kNone),
      critic_target_(critic_),
      actor_opt_(actor_.params(),
                 {.lr = config_.actor_lr, .grad_clip = config_.grad_clip}),
      critic_opt_(critic_.params(),
                  {.lr = config_.critic_lr, .grad_clip = config_.grad_clip}) {}

std::vector<double> DdpgAgent::act(std::span<const double> state) {
  if (state.size() != config_.state_dim) {
    throw std::invalid_argument("DdpgAgent::act: state dim mismatch");
  }
  return actor_.forward_one(state);
}

std::vector<double> DdpgAgent::act_noisy(std::span<const double> state,
                                         double sigma, common::Rng& rng) {
  auto action = act(state);
  for (double& a : action) {
    a = common::clamp(a + rng.normal(0.0, sigma), 0.0, 1.0);
  }
  return action;
}

double DdpgAgent::q_value(std::span<const double> state,
                          std::span<const double> action) {
  std::vector<double> input(state.begin(), state.end());
  input.insert(input.end(), action.begin(), action.end());
  return critic_.forward_one(input)[0];
}

DdpgTrainStats DdpgAgent::train_step(ReplayBuffer& buffer, common::Rng& rng) {
  const SampledBatch batch = buffer.sample(config_.batch_size, rng);
  const auto m = batch.size();

  const nn::Matrix s = states_of(batch.transitions);
  const nn::Matrix a = actions_of(batch.transitions);
  const nn::Matrix r = rewards_of(batch.transitions);
  const nn::Matrix s_next = next_states_of(batch.transitions);
  const nn::Matrix done = dones_of(batch.transitions);

  // y = r + gamma * Q'(s', mu'(s')) — no smoothing, single critic: this is
  // precisely the overestimation-prone target TD3 was designed to fix.
  const nn::Matrix a_next = actor_target_.forward(s_next);
  const nn::Matrix q_next = critic_target_.forward(concat_cols(s_next, a_next));
  nn::Matrix y(m, 1);
  for (std::size_t i = 0; i < m; ++i) {
    y(i, 0) = r(i, 0) + config_.gamma * (1.0 - done(i, 0)) * q_next(i, 0);
  }

  DdpgTrainStats stats;
  std::vector<double> td_errors(m);

  critic_.zero_grad();
  const nn::Matrix critic_in = concat_cols(s, a);
  const nn::Matrix& pred = critic_.forward(critic_in);
  nn::Matrix grad(m, 1);
  double loss = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double diff = pred(i, 0) - y(i, 0);
    const double w = batch.weights[i];
    loss += w * diff * diff;
    grad(i, 0) = 2.0 * w * diff / static_cast<double>(m);
    td_errors[i] = diff;
  }
  critic_.backward(grad);
  critic_opt_.step();
  stats.critic_loss = loss / static_cast<double>(m);
  buffer.update_priorities(batch.ids, td_errors);

  // Actor ascent on Q(s, mu(s)).
  actor_.zero_grad();
  critic_.zero_grad();
  const nn::Matrix policy_in = concat_cols(s, actor_.forward(s));
  const nn::Matrix& q = critic_.forward(policy_in);
  double q_mean = 0.0;
  for (std::size_t i = 0; i < m; ++i) q_mean += q(i, 0);
  stats.actor_loss = -q_mean / static_cast<double>(m);

  nn::Matrix dq(m, 1, -1.0 / static_cast<double>(m));
  const nn::Matrix d_input = critic_.backward(dq);
  actor_.backward(right_cols(d_input, config_.action_dim));
  actor_opt_.step();
  critic_.zero_grad();

  actor_target_.soft_update_from(actor_, config_.tau);
  critic_target_.soft_update_from(critic_, config_.tau);
  ++steps_;
  return stats;
}

void DdpgAgent::save(std::ostream& os) {
  actor_.save(os);
  actor_target_.save(os);
  critic_.save(os);
  critic_target_.save(os);
}

void DdpgAgent::load(std::istream& is) {
  actor_.load(is);
  actor_target_.load(is);
  critic_.load(is);
  critic_target_.load(is);
}

}  // namespace deepcat::rl
