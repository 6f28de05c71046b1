// Helpers shared by the DDPG and TD3 agents for packing sampled
// transitions into batched matrices and splitting critic input gradients.
#pragma once

#include <span>

#include "nn/matrix.hpp"
#include "rl/transition.hpp"

namespace deepcat::rl {

/// (m x state_dim) matrix of batch states.
[[nodiscard]] nn::Matrix states_of(std::span<const Transition* const> batch);
/// (m x action_dim) matrix of batch actions.
[[nodiscard]] nn::Matrix actions_of(std::span<const Transition* const> batch);
/// (m x state_dim) matrix of next states.
[[nodiscard]] nn::Matrix next_states_of(
    std::span<const Transition* const> batch);
/// (m x 1) rewards column.
[[nodiscard]] nn::Matrix rewards_of(std::span<const Transition* const> batch);
/// (m x 1) terminal flags (1.0 if done).
[[nodiscard]] nn::Matrix dones_of(std::span<const Transition* const> batch);

/// [A | B] column-wise concatenation (same row count).
[[nodiscard]] nn::Matrix concat_cols(const nn::Matrix& a, const nn::Matrix& b);

/// Right `cols` columns of `m` (used to slice dQ/da out of dQ/d[s,a]).
[[nodiscard]] nn::Matrix right_cols(const nn::Matrix& m, std::size_t cols);

// Workspace forms for the train-step loop: same values as the calls
// above, written into `out` (resized, its allocation reused).

void states_of(std::span<const Transition* const> batch, nn::Matrix& out);
void actions_of(std::span<const Transition* const> batch, nn::Matrix& out);
void next_states_of(std::span<const Transition* const> batch,
                    nn::Matrix& out);
void concat_cols(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& out);
void right_cols(const nn::Matrix& m, std::size_t cols, nn::Matrix& out);

}  // namespace deepcat::rl
