// Pinned bits of the TD3 train step. Runs a fixed-seed sequence of
// train_steps at serving shapes (state 9, action 32, hidden 128x128, batch
// 64) through a prioritized buffer, so the TD errors steer later samples,
// and hashes everything the step writes: all six networks, the three Adam
// states (moments and step counters), the critic losses, the RNG state,
// and the 1-row act / twin_q outputs of the trained agent. The second half
// runs with the optimizer step counters advanced past 356, where
// 1 - 0.9^t rounds to exactly 1.0, as on every served session.
//
// The expected hashes were recorded before the train-step optimizations
// they guard; any change to a kernel's per-element arithmetic moves them.
// One constant per ISA tier, because the dot-family reductions differ
// between tiers (common/simd.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "rl/replay_per.hpp"
#include "rl/td3.hpp"

namespace deepcat::rl {
namespace {

using common::simd::Backend;

class BackendGuard {
 public:
  ~BackendGuard() { common::simd::force_backend(Backend::kAvx512); }
};

class Fnv1a {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void add(double x) { add(&x, sizeof x); }
  void add(std::uint64_t x) { add(&x, sizeof x); }
  void add(const nn::Matrix& m) {
    add(m.data(), m.size() * sizeof(double));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

Td3Config serving_config() {
  Td3Config c;
  c.state_dim = 9;
  c.action_dim = 32;
  c.hidden = {128, 128};
  c.batch_size = 64;
  return c;
}

std::uint64_t train_and_hash() {
  common::Rng rng(20260415);
  Td3Config config = serving_config();
  Td3Agent agent(config, rng);
  PrioritizedReplay buffer(512);
  for (int i = 0; i < 256; ++i) {
    Transition t;
    t.state.resize(config.state_dim);
    t.action.resize(config.action_dim);
    t.next_state.resize(config.state_dim);
    for (double& x : t.state) x = rng.uniform();
    for (double& x : t.action) x = rng.uniform();
    for (double& x : t.next_state) x = rng.uniform();
    t.reward = rng.normal();
    t.done = i % 17 == 0;
    buffer.add(std::move(t));
  }

  Fnv1a h;
  const auto run = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      const Td3TrainStats s = agent.train_step(buffer, rng);
      h.add(s.critic1_loss);
      h.add(s.critic2_loss);
    }
  };
  run(6);
  // Advance every optimizer's step counter past the point where the first
  // bias correction is exactly 1.0, keeping its moments.
  for (auto& [name, opt] : agent.optimizers()) {
    opt->restore_state(opt->first_moments(), opt->second_moments(),
                       opt->step_count() + 531);
  }
  run(6);

  for (auto& [name, net] : agent.networks()) {
    for (const nn::Param& p : net->params()) h.add(*p.value);
  }
  for (auto& [name, opt] : agent.optimizers()) {
    for (const nn::Matrix& m : opt->first_moments()) h.add(m);
    for (const nn::Matrix& v : opt->second_moments()) h.add(v);
    h.add(static_cast<std::uint64_t>(opt->step_count()));
  }
  const common::RngState st = rng.state();
  for (const std::uint64_t w : st.s) h.add(w);
  h.add(st.spare);
  h.add(static_cast<std::uint64_t>(st.has_spare));

  std::vector<double> state(config.state_dim), action(config.action_dim);
  for (double& x : state) x = rng.uniform();
  for (double& x : action) x = rng.uniform();
  for (const double a : agent.act(state)) h.add(a);
  const auto [q1, q2] = agent.twin_q(state, action);
  h.add(q1);
  h.add(q2);
  return h.value();
}

std::uint64_t pinned_hash(Backend be) {
  switch (be) {
    case Backend::kScalar: return 0x782fa0d149ee3d62ull;
    case Backend::kAvx2: return 0x91bc8ea8928eee89ull;
    case Backend::kAvx512: return 0xf5ceb41aced5ba24ull;
  }
  return 0;
}

TEST(Td3PinnedBitsTest, TrainStepsMatchPinnedHashOnEveryTier) {
  BackendGuard guard;
  for (const Backend be : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (!common::simd::backend_selectable(be)) continue;
    common::simd::force_backend(be);
    EXPECT_EQ(train_and_hash(), pinned_hash(be))
        << common::simd::backend_label(be) << std::hex << " got 0x"
        << train_and_hash();
  }
}

}  // namespace
}  // namespace deepcat::rl
