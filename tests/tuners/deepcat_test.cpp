#include "tuners/deepcat.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/math_util.hpp"
#include "common/simd.hpp"
#include "sparksim/environment.hpp"

namespace deepcat::tuners {
namespace {

using sparksim::TuningEnvironment;
using sparksim::WorkloadType;

TuningEnvironment make_env(std::uint64_t seed = 42) {
  return TuningEnvironment(sparksim::cluster_a(),
                           sparksim::make_workload(WorkloadType::kTeraSort, 3.2),
                           {.seed = seed});
}

DeepCatOptions fast_options(std::uint64_t seed = 1) {
  DeepCatOptions o;
  o.td3.hidden = {32, 32};
  o.seed = seed;
  o.warmup_steps = 16;
  return o;
}

TEST(DeepCatTunerTest, OptionValidation) {
  DeepCatOptions o = fast_options();
  o.q_threshold = 100.0;
  EXPECT_THROW(DeepCatTuner{o}, std::invalid_argument);
  o = fast_options();
  o.max_optimizer_iters = 0;
  EXPECT_THROW(DeepCatTuner{o}, std::invalid_argument);
}

TEST(DeepCatTunerTest, AgentUnavailableBeforeTraining) {
  DeepCatTuner tuner(fast_options());
  EXPECT_THROW((void)tuner.agent(), std::logic_error);
}

TEST(DeepCatTunerTest, OfflineTraceHasOneRecordPerIteration) {
  DeepCatTuner tuner(fast_options());
  TuningEnvironment env = make_env();
  const auto trace = tuner.train_offline(env, 40);
  ASSERT_EQ(trace.size(), 40u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].iteration, i);
    EXPECT_GT(trace[i].exec_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(trace[i].reward));
    EXPECT_TRUE(std::isfinite(trace[i].min_q));
  }
}

TEST(DeepCatTunerTest, OfflineTrainingImprovesReward) {
  DeepCatTuner tuner(fast_options(7));
  TuningEnvironment env = make_env(7);
  const auto trace = tuner.train_offline(env, 600);
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < 100; ++i) early += trace[i].reward;
  for (std::size_t i = trace.size() - 100; i < trace.size(); ++i) {
    late += trace[i].reward;
  }
  EXPECT_GT(late / 100.0, early / 100.0);
}

TEST(DeepCatTunerTest, TuneProducesFullReport) {
  DeepCatTuner tuner(fast_options(2));
  TuningEnvironment train_env = make_env(2);
  (void)tuner.train_offline(train_env, 200);
  TuningEnvironment env = make_env(3);
  const TuningReport report = tuner.tune(env, 5);
  EXPECT_EQ(report.tuner_name, "DeepCAT");
  EXPECT_EQ(report.steps.size(), 5u);
  EXPECT_GT(report.default_time, 0.0);
  EXPECT_GT(report.best_time, 0.0);
  EXPECT_LE(report.best_time, report.default_time);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(report.steps[static_cast<std::size_t>(i)].step, i + 1);
    EXPECT_GE(report.steps[static_cast<std::size_t>(i)].recommendation_seconds,
              0.0);
  }
  // best_so_far must be non-increasing.
  for (std::size_t i = 1; i < report.steps.size(); ++i) {
    EXPECT_LE(report.steps[i].best_so_far, report.steps[i - 1].best_so_far);
  }
}

TEST(DeepCatTunerTest, DefaultRunExcludedFromStepCosts) {
  DeepCatTuner tuner(fast_options(4));
  TuningEnvironment train_env = make_env(4);
  (void)tuner.train_offline(train_env, 120);
  TuningEnvironment env = make_env(5);
  const TuningReport report = tuner.tune(env, 3);
  // Env counted 3 paid evaluations after the counters were reset.
  EXPECT_EQ(env.evaluations(), 3u);
  EXPECT_NEAR(report.total_evaluation_seconds(),
              env.total_evaluation_seconds(), 1e-9);
}

TEST(DeepCatTunerTest, TwinQOptimizerAcceptsGoodActionUnchanged) {
  DeepCatOptions o = fast_options(6);
  o.q_threshold = -9.0;  // below any reachable Q: everything passes
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(6);
  (void)tuner.train_offline(env, 80);
  std::vector<double> action(env.action_dim(), 0.5);
  const std::vector<double> original = action;
  const auto trace = tuner.optimize_action(std::vector<double>(9, 0.5), action);
  EXPECT_TRUE(trace.accepted_original);
  EXPECT_EQ(trace.iterations, 0u);
  EXPECT_EQ(action, original);
}

TEST(DeepCatTunerTest, TwinQOptimizerImprovesIndicator) {
  DeepCatOptions o = fast_options(8);
  o.q_threshold = 9.0;  // unreachable: forces the full bounded loop
  o.max_optimizer_iters = 32;
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(8);
  (void)tuner.train_offline(env, 200);
  std::vector<double> action(env.action_dim(), 0.1);
  const auto trace = tuner.optimize_action(std::vector<double>(9, 0.5), action);
  EXPECT_FALSE(trace.accepted_original);
  EXPECT_EQ(trace.iterations, 32u);
  EXPECT_GE(trace.final_min_q, trace.initial_min_q);
}

TEST(DeepCatTunerTest, TwinQOptimizerStopsAtThreshold) {
  DeepCatOptions o = fast_options(9);
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(9);
  (void)tuner.train_offline(env, 300);
  // A low threshold should be reachable quickly for most states.
  std::vector<double> action(env.action_dim(), 0.5);
  const auto trace =
      tuner.optimize_action(std::vector<double>(9, 0.4), action);
  if (!trace.accepted_original) {
    EXPECT_LE(trace.iterations, o.max_optimizer_iters);
  }
  for (double a : action) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

// Algorithm 1 as it ran before critic 2 was skipped: both critics on every
// candidate. Counts into `skippable` the iterations whose Q1 could not beat
// the best candidate, where the tuner now skips critic 2.
TwinQOptimizerTrace two_critic_loop(DeepCatTuner& tuner,
                                    std::span<const double> state,
                                    std::vector<double>& action,
                                    std::size_t& skippable) {
  const DeepCatOptions& o = tuner.options();
  rl::Td3Agent& agent = tuner.agent();
  TwinQOptimizerTrace trace;
  trace.initial_min_q = agent.min_q(state, action);
  trace.final_min_q = trace.initial_min_q;
  if (trace.initial_min_q >= o.q_threshold) {
    trace.accepted_original = true;
    return trace;
  }
  std::vector<double> candidate = action;
  std::vector<double> best = action;
  double best_q = trace.initial_min_q;
  for (std::size_t i = 0; i < o.max_optimizer_iters; ++i) {
    ++trace.iterations;
    for (double& a : candidate) {
      a = common::clamp(a + tuner.rng().normal(0.0, o.optimizer_sigma), 0.0,
                        1.0);
    }
    const auto [q1, q2] = agent.twin_q(state, candidate);
    if (q1 <= best_q) ++skippable;
    const double q = std::min(q1, q2);
    if (q > best_q) {
      best_q = q;
      best = candidate;
    }
    if (q >= o.q_threshold) break;
    candidate = best;
  }
  action = best;
  trace.final_min_q = best_q;
  return trace;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Bit-equal, or both NaN (a NaN Q-value's payload is the FMA's choice).
bool same_q(double a, double b) {
  return same_bits(a, b) || (std::isnan(a) && std::isnan(b));
}

TEST(DeepCatTunerTest, TwinQScreenSkippingCritic2MatchesTwoCriticLoop) {
  // 210 (state, action, noise seed) cases per ISA tier, then the same with
  // critic 1 answering NaN, against the loop that always ran both critics:
  // the action, the trace and the noise stream must agree bit for bit.
  namespace simd = common::simd;
  struct Guard {
    ~Guard() { simd::force_backend(simd::Backend::kAvx512); }
  } guard;
  DeepCatOptions o = fast_options(13);
  o.max_optimizer_iters = 24;
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(13);
  (void)tuner.train_offline(env, 120);
  for (const auto be : {simd::Backend::kScalar, simd::Backend::kAvx2,
                        simd::Backend::kAvx512}) {
    if (!simd::backend_selectable(be)) continue;
    simd::force_backend(be);
    for (const bool nan_q1 : {false, true}) {
      // critic1's output bias: NaN makes every Q1 NaN.
      nn::Matrix& head_bias =
          *tuner.agent().networks()[2].second->params().back().value;
      const double kept = head_bias(0, 0);
      if (nan_q1) head_bias(0, 0) = std::numeric_limits<double>::quiet_NaN();
      common::Rng draw(100 + static_cast<std::uint64_t>(be));
      const std::size_t cases = nan_q1 ? 10 : 210;
      std::size_t skippable = 0;
      for (std::size_t c = 0; c < cases; ++c) {
        std::vector<double> state(9), action(env.action_dim());
        for (double& x : state) x = draw.uniform();
        for (double& x : action) x = draw.uniform();
        const std::uint64_t seed = 1000 + c;
        tuner.rng() = common::Rng(seed);
        std::vector<double> got = action;
        const TwinQOptimizerTrace t = tuner.optimize_action(state, got);
        const double got_next = tuner.rng().uniform();
        tuner.rng() = common::Rng(seed);
        std::vector<double> want = action;
        const TwinQOptimizerTrace w =
            two_critic_loop(tuner, state, want, skippable);
        const double want_next = tuner.rng().uniform();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(same_bits(got[i], want[i]))
              << simd::backend_label(be) << " case " << c << " dim " << i;
        }
        EXPECT_EQ(t.iterations, w.iterations) << "case " << c;
        EXPECT_EQ(t.accepted_original, w.accepted_original) << "case " << c;
        EXPECT_TRUE(same_q(t.initial_min_q, w.initial_min_q)) << "case " << c;
        EXPECT_TRUE(same_q(t.final_min_q, w.final_min_q)) << "case " << c;
        EXPECT_TRUE(same_bits(got_next, want_next)) << "case " << c;
      }
      // The cases must exercise the skip (a NaN Q1 never takes it).
      if (nan_q1) {
        EXPECT_EQ(skippable, 0u) << simd::backend_label(be);
      } else {
        EXPECT_GT(skippable, cases) << simd::backend_label(be);
      }
      head_bias(0, 0) = kept;
    }
  }
}

TEST(DeepCatTunerTest, OnlineTracesRecordedPerStep) {
  DeepCatTuner tuner(fast_options(10));
  TuningEnvironment train_env = make_env(10);
  (void)tuner.train_offline(train_env, 150);
  TuningEnvironment env = make_env(11);
  (void)tuner.tune(env, 4);
  EXPECT_EQ(tuner.last_online_traces().size(), 4u);
}

TEST(DeepCatTunerTest, AblationDisablesTwinQOptimizer) {
  DeepCatOptions o = fast_options(12);
  o.use_twin_q_optimizer = false;
  DeepCatTuner tuner(o);
  TuningEnvironment train_env = make_env(12);
  (void)tuner.train_offline(train_env, 150);
  TuningEnvironment env = make_env(13);
  (void)tuner.tune(env, 4);
  EXPECT_TRUE(tuner.last_online_traces().empty());
}

TEST(DeepCatTunerTest, AblationUsesUniformReplay) {
  DeepCatOptions o = fast_options(14);
  o.use_rdper = false;
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(14);
  const auto trace = tuner.train_offline(env, 80);
  EXPECT_EQ(trace.size(), 80u);  // trains cleanly on uniform replay
}

TEST(DeepCatTunerTest, BudgetStopsEarly) {
  DeepCatTuner tuner(fast_options(15));
  TuningEnvironment train_env = make_env(15);
  (void)tuner.train_offline(train_env, 150);
  TuningEnvironment env = make_env(16);
  // A budget of ~one evaluation must stop the loop well before 50 steps.
  const TuningReport report =
      tuner.tune_with_budget(env, {.max_steps = 50, .max_total_seconds = 1.0});
  EXPECT_LT(report.steps.size(), 50u);
  EXPECT_GE(report.steps.size(), 1u);
}

TEST(DeepCatTunerTest, SaveLoadPreservesPolicy) {
  DeepCatTuner a(fast_options(17));
  TuningEnvironment env = make_env(17);
  (void)a.train_offline(env, 150);
  DeepCatTuner b(fast_options(18));
  TuningEnvironment env_b = make_env(18);
  (void)b.train_offline(env_b, 30);  // build the agent, different weights

  std::stringstream ss;
  a.save(ss);
  b.load(ss);
  const std::vector<double> state(9, 0.5);
  EXPECT_EQ(a.agent().act(state), b.agent().act(state));
}

TEST(DeepCatTunerTest, StableOnlineProtocolIsDeterministic) {
  // With no exploration noise and the optimizer disabled (its repair
  // walk draws tuner-local randomness), two tuning sessions from the
  // same weights on the same environment seed must be identical — the
  // deterministic core of the "stable online tuning phase" (§5.2.3).
  DeepCatOptions o = fast_options(30);
  o.online_explore_sigma = 0.0;
  o.use_twin_q_optimizer = false;
  DeepCatTuner a(o);
  TuningEnvironment train = make_env(30);
  (void)a.train_offline(train, 150);
  std::stringstream weights;
  a.save(weights);

  TuningEnvironment env1 = make_env(31);
  const TuningReport r1 = a.tune(env1, 4);

  DeepCatTuner b(o);
  TuningEnvironment boot = make_env(32);
  (void)b.train_offline(boot, 30);
  weights.clear();
  weights.seekg(0);
  b.load(weights);
  TuningEnvironment env2 = make_env(31);
  const TuningReport r2 = b.tune(env2, 4);

  ASSERT_EQ(r1.steps.size(), r2.steps.size());
  // First-step actions come from identical weights on identical states;
  // later steps may diverge because the two tuners fine-tune on replay
  // buffers with different histories. Step 1 must match exactly.
  EXPECT_DOUBLE_EQ(r1.steps[0].exec_seconds, r2.steps[0].exec_seconds);
}

TEST(DeepCatTunerTest, EnvironmentDimChangeRejected) {
  DeepCatTuner tuner(fast_options(19));
  TuningEnvironment env = make_env(19);
  (void)tuner.train_offline(env, 40);
  TuningEnvironment env_b(
      sparksim::ClusterSpec{"tiny", {sparksim::NodeSpec{}}},
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), {.seed = 1});
  EXPECT_NE(env_b.state_dim(), env.state_dim());
  EXPECT_THROW((void)tuner.tune(env_b, 2), std::invalid_argument);
}

}  // namespace
}  // namespace deepcat::tuners
