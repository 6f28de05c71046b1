// Heap-allocation accounting for the MLP workspaces: after one warm-up
// call at batch 64 and one at batch 1, Mlp::forward and Mlp::backward (in
// every Backprop mode) must not allocate, and a warm TD3 train step
// allocates only its sampled batch — no more through the serving layer's
// shared replay view than through the RDPER buffer it views. A replaced
// global operator new counts every allocation in this binary, so it lives
// in its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <shared_mutex>
#include <vector>

#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "rl/replay_rdper.hpp"
#include "rl/td3.hpp"
#include "service/session.hpp"

namespace {
std::atomic<unsigned long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace deepcat::nn {
namespace {

Matrix filled(std::size_t rows, std::size_t cols, common::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.normal();
  return m;
}

// Allocations made by `body`.
template <typename Body>
unsigned long long allocations_in(Body&& body) {
  const auto before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

TEST(MlpAllocationTest, CounterSeesMatrixAllocations) {
  std::vector<Matrix> kept;
  kept.reserve(1);
  EXPECT_EQ(allocations_in([&] { kept.emplace_back(64, 41); }), 1u);
}

TEST(MlpAllocationTest, WarmForwardAndBackwardAllocateNothing) {
  common::Rng rng(1);
  for (const auto out : {OutputActivation::kNone, OutputActivation::kSigmoid}) {
    Mlp net({41, 128, 128, 32}, rng, out);
    const Matrix x64 = filled(64, 41, rng), g64 = filled(64, 32, rng);
    const Matrix x1 = filled(1, 41, rng), g1 = filled(1, 32, rng);

    // Warm-up: one call at each batch size sizes every workspace.
    (void)net.forward(x64);
    (void)net.backward(g64);
    (void)net.forward(x1);
    (void)net.backward(g1);

    const auto n = allocations_in([&] {
      for (const Backprop mode : {Backprop::kFull, Backprop::kParamsOnly,
                                  Backprop::kInputOnly}) {
        net.zero_grad();
        (void)net.forward(x64);
        (void)net.backward(g64, mode);
        (void)net.forward(x1);
        (void)net.backward(g1, mode);
      }
    });
    EXPECT_EQ(n, 0u);
  }
}

TEST(MlpAllocationTest, WarmTwinQAllocatesNothing) {
  common::Rng rng(2);
  rl::Td3Config config;
  config.state_dim = 9;
  config.action_dim = 32;
  rl::Td3Agent agent(config, rng);
  const std::vector<double> state(9, 0.25), action(32, 0.5);
  (void)agent.twin_q(state, action);
  double sink = 0.0;
  const auto n = allocations_in([&] {
    for (int i = 0; i < 4; ++i) sink += agent.min_q(state, action);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(std::isfinite(sink));
}

rl::Td3Config serving_config() {
  rl::Td3Config config;
  config.state_dim = 9;
  config.action_dim = 32;
  return config;
}

TEST(Td3AllocationTest, WarmStepThroughSharedViewAllocatesNoMoreThanRdper) {
  common::Rng rng(3);
  const rl::Td3Config config = serving_config();
  rl::RdperReplay master(1000, {.reward_threshold = 0.0, .beta = 0.6});
  for (int i = 0; i < 200; ++i) {
    std::vector<double> s(9), a(32), s2(9);
    for (double& v : s) v = rng.uniform();
    for (double& v : a) v = rng.uniform();
    for (double& v : s2) v = rng.uniform();
    master.add({s, a, rng.uniform(-3.0, 1.0), s2, false});
  }
  std::shared_mutex mutex;
  service::SharedRdperReplay view(master, mutex);

  common::Rng init_a(5), init_b(5), rng_a(6), rng_b(6);
  rl::Td3Agent direct(config, init_a), viewed(config, init_b);
  // Two warm-up steps each: the second is a policy step (policy_delay 2),
  // so every workspace and the view's scratch batch are sized.
  for (int i = 0; i < 2; ++i) {
    (void)direct.train_step(master, rng_a);
    (void)viewed.train_step(view, rng_b);
  }
  for (int i = 0; i < 2; ++i) {
    const auto through_rdper =
        allocations_in([&] { (void)direct.train_step(master, rng_a); });
    const auto through_view =
        allocations_in([&] { (void)viewed.train_step(view, rng_b); });
    // The sampled batch's three vectors (transitions, weights, ids).
    EXPECT_EQ(through_rdper, 3u);
    EXPECT_LE(through_view, through_rdper);
  }
}

}  // namespace
}  // namespace deepcat::nn
