#include "rl/td3.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/math_util.hpp"
#include "rl/agent_util.hpp"

namespace deepcat::rl {

namespace {

std::vector<std::size_t> net_dims(std::size_t in,
                                  const std::vector<std::size_t>& hidden,
                                  std::size_t out) {
  std::vector<std::size_t> dims;
  dims.reserve(hidden.size() + 2);
  dims.push_back(in);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out);
  return dims;
}

nn::Mlp make_actor(const Td3Config& c, common::Rng& rng) {
  return nn::Mlp(net_dims(c.state_dim, c.hidden, c.action_dim), rng,
                 nn::OutputActivation::kSigmoid);
}

nn::Mlp make_critic(const Td3Config& c, common::Rng& rng) {
  return nn::Mlp(net_dims(c.state_dim + c.action_dim, c.hidden, 1), rng,
                 nn::OutputActivation::kNone);
}

void validate(const Td3Config& c) {
  if (c.state_dim == 0 || c.action_dim == 0) {
    throw std::invalid_argument("Td3Config: zero state/action dim");
  }
  if (c.batch_size == 0) throw std::invalid_argument("Td3Config: batch 0");
  if (c.policy_delay == 0) {
    throw std::invalid_argument("Td3Config: policy_delay 0");
  }
  if (c.gamma < 0.0 || c.gamma > 1.0) {
    throw std::invalid_argument("Td3Config: gamma out of range");
  }
}

}  // namespace

Td3Agent::Td3Agent(Td3Config config, common::Rng& rng)
    : config_((validate(config), config)),
      actor_(make_actor(config_, rng)),
      actor_target_(actor_),
      critic1_(make_critic(config_, rng)),
      critic2_(make_critic(config_, rng)),
      critic1_target_(critic1_),
      critic2_target_(critic2_),
      actor_opt_(actor_.params(),
                 {.lr = config_.actor_lr, .grad_clip = config_.grad_clip}),
      critic1_opt_(critic1_.params(),
                   {.lr = config_.critic_lr, .grad_clip = config_.grad_clip}),
      critic2_opt_(critic2_.params(),
                   {.lr = config_.critic_lr, .grad_clip = config_.grad_clip}) {
  if (config_.obs.metrics != nullptr) {
    obs_train_steps_ = &config_.obs.metrics->counter("rl.train_steps");
    obs_critic1_loss_ = &config_.obs.metrics->gauge("rl.critic1_loss");
    obs_critic2_loss_ = &config_.obs.metrics->gauge("rl.critic2_loss");
    obs_actor_loss_ = &config_.obs.metrics->gauge("rl.actor_loss");
  }
}

std::vector<double> Td3Agent::act(std::span<const double> state) {
  if (state.size() != config_.state_dim) {
    throw std::invalid_argument("Td3Agent::act: state dim mismatch");
  }
  return actor_.forward_one(state);
}

std::vector<double> Td3Agent::act_noisy(std::span<const double> state,
                                        double sigma, common::Rng& rng) {
  auto action = act(state);
  for (double& a : action) {
    a = common::clamp(a + rng.normal(0.0, sigma), 0.0, 1.0);
  }
  return action;
}

std::pair<double, double> Td3Agent::twin_q(std::span<const double> state,
                                           std::span<const double> action) {
  pair_in_.resize(1, state.size() + action.size());
  const auto tail = std::copy(state.begin(), state.end(), pair_in_.data());
  std::copy(action.begin(), action.end(), tail);
  const double q1 = critic1_.forward(pair_in_)(0, 0);
  const double q2 = critic2_.forward(pair_in_)(0, 0);
  return {q1, q2};
}

double Td3Agent::min_q(std::span<const double> state,
                       std::span<const double> action) {
  const auto [q1, q2] = twin_q(state, action);
  return std::min(q1, q2);
}

std::size_t Td3Agent::fine_tune(ReplayBuffer& buffer, common::Rng& rng,
                                std::size_t max_steps) {
  if (buffer.size() < config_.batch_size) return 0;
  std::size_t taken = 0;
  for (; taken < max_steps; ++taken) (void)train_step(buffer, rng);
  return taken;
}

Td3TrainStats Td3Agent::train_step(ReplayBuffer& buffer, common::Rng& rng) {
  const SampledBatch batch = buffer.sample(config_.batch_size, rng);
  const auto m = batch.size();
  const std::size_t sd = config_.state_dim;

  states_of(batch.transitions, states_);
  actions_of(batch.transitions, actions_);
  next_states_of(batch.transitions, next_states_);

  // Target action with clipped smoothing noise (TD3 trick #3), applied in
  // place to the action half of the target critics' input.
  concat_cols(next_states_, actor_target_.forward(next_states_), target_in_);
  for (std::size_t i = 0; i < m; ++i) {
    for (double& v : target_in_.row(i).subspan(sd)) {
      const double eps = common::clamp(rng.normal(0.0, config_.policy_noise),
                                       -config_.noise_clip, config_.noise_clip);
      v = common::clamp(v + eps, 0.0, 1.0);
    }
  }

  // Clipped double-Q target (TD3 trick #1).
  const nn::Matrix& q1_next = critic1_target_.forward(target_in_);
  const nn::Matrix& q2_next = critic2_target_.forward(target_in_);
  targets_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const Transition& t = *batch.transitions[i];
    const double q_min = std::min(q1_next(i, 0), q2_next(i, 0));
    const double done = t.done ? 1.0 : 0.0;
    targets_[i] = t.reward + config_.gamma * (1.0 - done) * q_min;
  }

  concat_cols(states_, actions_, critic_in_);
  Td3TrainStats stats;
  td_errors_.resize(m);
  td_grad_.resize(m, 1);

  auto update_critic = [&](nn::Mlp& critic, nn::Adam& opt,
                           bool record_td) -> double {
    critic.zero_grad();
    const nn::Matrix& pred = critic.forward(critic_in_);
    // Importance-weighted MSE (weights are 1.0 for uniform/RDPER).
    double loss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double diff = pred(i, 0) - targets_[i];
      const double w = batch.weights[i];
      loss += w * diff * diff;
      td_grad_(i, 0) = 2.0 * w * diff / static_cast<double>(m);
      if (record_td) td_errors_[i] = diff;
    }
    // dL/d(critic input) is never read: skip the first layer's dX.
    critic.backward(td_grad_, nn::Backprop::kParamsOnly);
    opt.step();
    return loss / static_cast<double>(m);
  };

  stats.critic1_loss = update_critic(critic1_, critic1_opt_, true);
  stats.critic2_loss = update_critic(critic2_, critic2_opt_, false);
  buffer.update_priorities(batch.ids, td_errors_);

  ++steps_;
  // Delayed policy + target updates (TD3 trick #2).
  if (steps_ % config_.policy_delay == 0) {
    update_actor();
    actor_target_.soft_update_from(actor_, config_.tau);
    critic1_target_.soft_update_from(critic1_, config_.tau);
    critic2_target_.soft_update_from(critic2_, config_.tau);
    stats.actor_loss = actor_loss();
  }
  if (obs_train_steps_ != nullptr) {
    obs_train_steps_->add(1);
    obs_critic1_loss_->set(stats.critic1_loss);
    obs_critic2_loss_->set(stats.critic2_loss);
    if (stats.actor_loss) obs_actor_loss_->set(*stats.actor_loss);
  }
  // Convergence history: one point per train step (the serving layer only
  // attaches a series registry to the master agent, so these trace the
  // master's fine-tune trajectory, not per-session clones).
  config_.obs.record_series("rl.critic1_loss", stats.critic1_loss);
  config_.obs.record_series("rl.critic2_loss", stats.critic2_loss);
  if (stats.actor_loss) {
    config_.obs.record_series("rl.actor_loss", *stats.actor_loss);
  }
  return stats;
}

void Td3Agent::update_actor() {
  // Maximize Q1(s, pi(s)): gradient of -mean(Q1) w.r.t. actor parameters,
  // chained through the critic input (paper Eq. 4 decomposition). The
  // critic pass produces dQ/d(input) only — its parameter gradients would
  // be discarded — and the actor needs no dL/d(state).
  actor_.zero_grad();
  concat_cols(states_, actor_.forward(states_), policy_in_);
  const nn::Matrix& q = critic1_.forward(policy_in_);

  dq_.resize(q.rows(), 1);
  dq_.fill(-1.0 / static_cast<double>(q.rows()));  // d(-mean Q)/dQ
  const nn::Matrix& d_input = critic1_.backward(dq_, nn::Backprop::kInputOnly);
  right_cols(d_input, config_.action_dim, d_action_);

  actor_.backward(d_action_, nn::Backprop::kParamsOnly);
  actor_opt_.step();
}

double Td3Agent::actor_loss() {
  concat_cols(states_, actor_.forward(states_), policy_in_);
  const nn::Matrix& q = critic1_.forward(policy_in_);
  double q_mean = 0.0;
  for (std::size_t i = 0; i < q.rows(); ++i) q_mean += q(i, 0);
  return -q_mean / static_cast<double>(q.rows());
}

std::vector<std::pair<const char*, nn::Mlp*>> Td3Agent::networks() {
  return {{"actor", &actor_},
          {"actor_target", &actor_target_},
          {"critic1", &critic1_},
          {"critic2", &critic2_},
          {"critic1_target", &critic1_target_},
          {"critic2_target", &critic2_target_}};
}

std::vector<std::pair<const char*, nn::Adam*>> Td3Agent::optimizers() {
  return {{"actor_opt", &actor_opt_},
          {"critic1_opt", &critic1_opt_},
          {"critic2_opt", &critic2_opt_}};
}

void Td3Agent::save(std::ostream& os) {
  for (auto& [name, net] : networks()) net->save(os);
  for (auto& [name, opt] : optimizers()) opt->save(os);
  os << steps_ << '\n';
}

void Td3Agent::load(std::istream& is) {
  for (auto& [name, net] : networks()) net->load(is);
  for (auto& [name, opt] : optimizers()) opt->load(is);
  is >> steps_;
  if (!is) throw std::runtime_error("Td3Agent::load: truncated stream");
}

}  // namespace deepcat::rl
