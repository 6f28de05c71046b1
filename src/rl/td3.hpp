// TD3 — twin delayed deep deterministic policy gradient (Fujimoto et al.,
// 2018), the algorithm DeepCAT trains (paper §3.2). Actions live in
// [0,1]^action_dim (sigmoid actor output). The twin critics double as
// DeepCAT's online execution-time indicator (paper §3.4): min(Q1, Q2) of a
// candidate action predicts whether it is worth a real evaluation.
#pragma once

#include <iosfwd>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "obs/sink.hpp"
#include "rl/replay.hpp"

namespace deepcat::rl {

struct Td3Config {
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  std::vector<std::size_t> hidden = {128, 128};
  double gamma = 0.99;           ///< discount factor
  double tau = 0.005;            ///< target soft-update rate
  double actor_lr = 1e-4;
  double critic_lr = 1e-3;
  double policy_noise = 0.2;     ///< target policy smoothing sigma
  double noise_clip = 0.5;       ///< smoothing noise clip
  std::size_t policy_delay = 2;  ///< critic updates per actor update
  std::size_t batch_size = 64;
  double grad_clip = 5.0;
  /// Observability hand-off (non-owning; default = inert, zero overhead
  /// beyond a null check). Not serialized by checkpoints — the hosting
  /// layer re-injects its sink when it materializes an agent.
  obs::Sink obs{};
};

/// Losses from one training step (actor_loss absent on non-policy steps).
struct Td3TrainStats {
  double critic1_loss = 0.0;
  double critic2_loss = 0.0;
  std::optional<double> actor_loss;
};

class Td3Agent {
 public:
  Td3Agent(Td3Config config, common::Rng& rng);

  /// Deterministic policy output for one state, each dim in [0,1].
  [[nodiscard]] std::vector<double> act(std::span<const double> state);

  /// Policy output + exploration Gaussian noise (clamped to [0,1]).
  [[nodiscard]] std::vector<double> act_noisy(std::span<const double> state,
                                              double sigma, common::Rng& rng);

  /// Q-values of (state, action) from both critics.
  [[nodiscard]] std::pair<double, double> twin_q(std::span<const double> state,
                                                 std::span<const double> action);

  /// min(Q1, Q2) — the Twin-Q indicator used by DeepCAT's online optimizer.
  [[nodiscard]] double min_q(std::span<const double> state,
                             std::span<const double> action);

  /// One gradient step on a batch sampled from `buffer`. Also feeds TD
  /// errors back for prioritized buffers. Requires buffer.size() > 0.
  Td3TrainStats train_step(ReplayBuffer& buffer, common::Rng& rng);

  /// Bounded continuous-update hook for the serving layer: takes up to
  /// `max_steps` train_step calls and returns how many were taken. Unlike
  /// train_step it is safe on a cold buffer — it takes no steps while
  /// `buffer` holds fewer than one full batch, so a freshly materialized
  /// master never trains on a degenerate sample.
  std::size_t fine_tune(ReplayBuffer& buffer, common::Rng& rng,
                        std::size_t max_steps);

  [[nodiscard]] const Td3Config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t train_steps() const noexcept { return steps_; }
  void set_train_steps(std::size_t steps) noexcept { steps_ = steps; }

  /// Named handles over the six networks / three optimizers, in the fixed
  /// serialization order. The checkpoint layer iterates these instead of
  /// reaching into private members.
  [[nodiscard]] std::vector<std::pair<const char*, nn::Mlp*>> networks();
  [[nodiscard]] std::vector<std::pair<const char*, nn::Adam*>> optimizers();

  /// Persists / restores the complete trainable state: all six networks,
  /// all three Adam optimizers (moment vectors + step counters) and the
  /// train-step counter. Saving only the network weights would make a
  /// loaded agent fine-tune differently from a never-saved one — the warm
  /// Adam moments and the policy-delay phase both feed the next update.
  void save(std::ostream& os);
  void load(std::istream& is);

 private:
  /// Policy-gradient step on the states packed in states_.
  void update_actor();
  /// -mean Q1(s, pi(s)) over states_, for reporting.
  double actor_loss();

  Td3Config config_;
  nn::Mlp actor_, actor_target_;
  nn::Mlp critic1_, critic2_, critic1_target_, critic2_target_;
  nn::Adam actor_opt_, critic1_opt_, critic2_opt_;
  std::size_t steps_ = 0;
  // train_step / twin_q workspaces, reused across calls so no batch matrix
  // is reallocated per step. Each network remembers its forward input by
  // address (nn/layers.hpp), so the inputs of a backward pass live here,
  // not in locals.
  nn::Matrix states_, actions_, next_states_;
  nn::Matrix critic_in_;  ///< [s | a]
  nn::Matrix target_in_;  ///< [s' | smoothed pi'(s')]
  nn::Matrix policy_in_;  ///< [s | pi(s)]
  nn::Matrix pair_in_;    ///< one [state | action] row for twin_q
  nn::Matrix td_grad_, dq_, d_action_;
  std::vector<double> targets_, td_errors_;
  // Metric handles resolved once at construction (registry lookups lock).
  obs::Counter* obs_train_steps_ = nullptr;
  obs::Gauge* obs_critic1_loss_ = nullptr;
  obs::Gauge* obs_critic2_loss_ = nullptr;
  obs::Gauge* obs_actor_loss_ = nullptr;
};

}  // namespace deepcat::rl
