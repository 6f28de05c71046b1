// In-process side of the serving benchmark (perfbench/run.py).
//
//   perfbench_probe check <master.dckp> <requests.jsonl> <threads>
//     Runs service::run_session for every request against the master's
//     blob, exactly as the streaming service does (shared RDPER view over
//     the master pools), and prints one REP line per request (model epoch
//     1) in input order. run.py compares these with the served REPs.
//
//   perfbench_probe trace <master.dckp> <requests.jsonl> <scratch_dir>
//     Replays each request layer by layer through the modules' public
//     calls (clone, act, Twin-Q screen, simulator step, TD3 train step,
//     replay sample), timing every call, and checks that each replay
//     reproduces run_session's TuningReport bit for bit. Then times the
//     fixed per-layer costs (snapshot, publish, master fine-tune, GEMM at
//     the TD3 shapes, critic forward). Prints one flat JSON object.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/deepcat_api.hpp"
#include "nn/matrix.hpp"
#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "service/session.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"
#include "streamsim/environment.hpp"
#include "streamsim/workloads.hpp"
#include "tuners/tuner.hpp"

namespace {

using namespace deepcat;
using Clock = std::chrono::steady_clock;

// Per-session stream domains of service::run_session (session.cpp). The
// replay must derive its RNG streams the same way; the bit-identity check
// against run_session fails loudly if these ever drift.
constexpr std::uint64_t kTunerStream = 0x7D3EC47ULL;
constexpr std::uint64_t kEnvStream = 0x0E4B51ULL;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// The serving CLI's master settings: `deepcat serve --stream 1` with the
// default --seed 1 (tuner seed 1, environment seed 1001).
core::DeepCatApiOptions serve_api() {
  core::DeepCatApiOptions api;
  api.tuner.seed = 1;
  api.env.seed = 1001;
  return api;
}

sparksim::ClusterSpec cluster_for(const std::string& tag) {
  if (tag == "b" || tag == "B") return sparksim::cluster_b();
  return sparksim::cluster_a();
}

std::vector<service::TuningRequest> read_requests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open requests file " + path);
  return service::parse_requests_jsonl(in);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return std::move(os).str();
}

/// The master as the server holds it: the published checkpoint loaded into
/// a DeepCat with the serving options, plus its re-serialized blob.
struct Master {
  core::DeepCat model{sparksim::cluster_a(), serve_api()};
  std::string blob;
  std::shared_mutex mutex;
  const rl::RdperReplay* pools = nullptr;

  explicit Master(const std::string& path) {
    service::load_checkpoint_file(path, model);
    blob = service::checkpoint_to_string(model);
    pools = dynamic_cast<const rl::RdperReplay*>(model.tuner().replay());
    if (pools == nullptr) throw std::runtime_error("master has no RDPER pools");
  }
};

service::SessionReport served_session(Master& m,
                                      const service::TuningRequest& r) {
  return service::run_session(m.blob, serve_api(), r, m.pools, &m.mutex);
}

int cmd_check(const std::string& ckpt, const std::string& requests_path,
              std::size_t threads) {
  Master master(ckpt);
  const auto requests = read_requests(requests_path);
  std::vector<service::SessionReport> reports(requests.size());
  std::vector<std::thread> pool;
  threads = std::max<std::size_t>(1, threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < requests.size(); i += threads) {
        reports[i] = served_session(master, requests[i]);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& r : reports) {
    service::write_report_jsonl(std::cout, r, /*model_epoch=*/1);
  }
  return 0;
}

// ---- layer-by-layer replay ----------------------------------------------

/// Total, count and samples of one measured quantity: the wall time (ms)
/// of each call into a public entry point, or a per-call count.
struct Calls {
  double ms = 0.0;
  std::size_t n = 0;
  std::vector<double> each;  ///< per-call wall, ms
  void add(double t) {
    ms += t;
    ++n;
    each.push_back(t);
  }
};

using Layers = std::map<std::string, Calls>;

template <class F>
auto timed(Calls& c, F&& f) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    c.add(ms_since(t0));
  } else {
    auto out = f();
    c.add(ms_since(t0));
    return out;
  }
}

/// Forwards to the session's shared replay view and times sample(), the
/// call every TD3 train step opens with.
class TimedReplay final : public rl::ReplayBuffer {
 public:
  TimedReplay(std::unique_ptr<rl::ReplayBuffer> inner, Calls& sample_calls)
      : inner_(std::move(inner)), sample_calls_(sample_calls) {}

  void add(rl::Transition t) override { inner_->add(std::move(t)); }
  [[nodiscard]] rl::SampledBatch sample(std::size_t m,
                                        common::Rng& rng) override {
    return timed(sample_calls_, [&] { return inner_->sample(m, rng); });
  }
  void update_priorities(std::span<const std::uint64_t> ids,
                         std::span<const double> td_errors) override {
    inner_->update_priorities(ids, td_errors);
  }
  [[nodiscard]] std::size_t size() const noexcept override {
    return inner_->size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept override {
    return inner_->capacity();
  }

 private:
  std::unique_ptr<rl::ReplayBuffer> inner_;
  Calls& sample_calls_;
};

struct Replay {
  tuners::TuningReport report;
  bool ok = false;
  std::string error;
  double wall_ms = 0.0;
  double attributed_ms = 0.0;  ///< sum of the top-level timed calls
  double modeled_rec_s = 0.0;
  double act_screen_train_ms = 0.0;
  std::size_t train_steps = 0;
};

/// Mirrors service::run_session + DeepCatTuner::tune_with_budget for one
/// cold request, timing each public call. Top-level calls (the ones that
/// add up to the session wall) are core.construct, service.clone,
/// sparksim.env (environment build + default run), rl.act, tuners.screen,
/// sparksim.eval / streamsim.window and rl.train_step; rl.replay_sample
/// nests inside rl.train_step.
Replay replay_session(Master& m, const service::TuningRequest& req,
                      Layers& L) {
  static const std::vector<const char*> kTopLevel = {
      "core.construct", "service.clone",   "sparksim.env", "rl.act",
      "tuners.screen",  "sparksim.eval",   "streamsim.window",
      "rl.train_step",  "rl.replay_add"};
  std::map<std::string, double> before;
  for (const char* k : kTopLevel) before[k] = L[k].ms;

  Replay out;
  const auto t0 = Clock::now();
  try {
    const sparksim::HiBenchCase* batch_case = nullptr;
    const streamsim::StreamCase* stream_case = nullptr;
    try {
      batch_case = &sparksim::hibench_case(req.workload);
    } catch (const std::out_of_range&) {
      stream_case = &streamsim::stream_case(req.workload);
    }
    const sparksim::ClusterSpec cluster = cluster_for(req.cluster);
    const core::DeepCatApiOptions api = serve_api();

    std::unique_ptr<core::DeepCat> dc = timed(L["core.construct"], [&] {
      return std::make_unique<core::DeepCat>(cluster, api);
    });
    timed(L["service.clone"],
          [&] { service::checkpoint_from_string(m.blob, *dc); });
    tuners::DeepCatTuner& tuner = dc->tuner();
    tuner.rng() = common::Rng(common::mix_seed(req.seed, kTunerStream));
    tuner.set_replay(std::make_unique<TimedReplay>(
        std::make_unique<service::SharedRdperReplay>(*m.pools, m.mutex),
        L["rl.replay_sample"]));
    rl::ReplayBuffer& replay = *tuner.replay();
    rl::Td3Agent& agent = tuner.agent();
    const tuners::DeepCatOptions& opt = tuner.options();

    sparksim::EnvOptions env_options = api.env;
    env_options.seed = common::mix_seed(req.seed, kEnvStream);
    std::unique_ptr<sparksim::TuningEnvironment> env;
    std::vector<double> state;
    timed(L["sparksim.env"], [&] {
      if (batch_case != nullptr) {
        env = std::make_unique<sparksim::TuningEnvironment>(
            cluster, sparksim::workload_for(*batch_case), env_options);
      } else {
        env = std::make_unique<streamsim::StreamEnvironment>(
            cluster, *stream_case, env_options);
      }
      state = env->reset();
    });
    Calls& eval_calls =
        L[batch_case != nullptr ? "sparksim.eval" : "streamsim.window"];

    tuners::TuningReport& report = out.report;
    report.default_time = env->default_time();
    env->reset_cost_counters();
    const int num_steps = req.max_steps;
    for (int step = 1; step <= num_steps; ++step) {
      const auto t_rec = Clock::now();
      std::vector<double> action = timed(L["rl.act"], [&] {
        return agent.act_noisy(state, opt.online_explore_sigma, tuner.rng());
      });
      double rec_seconds = tuners::rec_cost::kActorForward;
      if (opt.use_twin_q_optimizer) {
        const tuners::TwinQOptimizerTrace trace =
            timed(L["tuners.screen"],
                  [&] { return tuner.optimize_action(state, action); });
        L["tuners.twinq_iters"].add(static_cast<double>(trace.iterations));
        L["tuners.twinq_pass"].add(
            trace.final_min_q >= opt.q_threshold ? 1.0 : 0.0);
        rec_seconds += tuners::rec_cost::kCriticPair *
                       static_cast<double>(1 + trace.iterations);
      }
      double rec_wall_ms = ms_since(t_rec);
      const sparksim::StepResult res =
          timed(eval_calls, [&] { return env->step(action); });
      timed(L["rl.replay_add"], [&] {
        replay.add({state, action, res.reward, res.state, step == num_steps});
      });
      if (replay.size() >= opt.td3.batch_size) {
        for (std::size_t k = 0; k < opt.online_finetune_steps; ++k) {
          const auto d0 = common::simd::dispatch_counts();
          const double t =
              time_ms([&] { (void)agent.train_step(replay, tuner.rng()); });
          const auto d1 = common::simd::dispatch_counts();
          L["rl.train_step"].add(t);
          rec_wall_ms += t;
          ++out.train_steps;
          L["common.gemm_calls"].add(static_cast<double>(
              (d1.scalar_calls + d1.avx2_calls + d1.avx512_calls) -
              (d0.scalar_calls + d0.avx2_calls + d0.avx512_calls)));
        }
        rec_seconds += tuners::rec_cost::kTrainStep *
                       static_cast<double>(opt.online_finetune_steps);
      }
      out.modeled_rec_s += rec_seconds;
      out.act_screen_train_ms += rec_wall_ms;

      tuners::TuningStepRecord rec;
      rec.step = step;
      rec.exec_seconds = res.exec_seconds;
      rec.reward = res.reward;
      rec.success = res.success;
      rec.recommendation_seconds = rec_seconds;
      rec.best_so_far = env->best_time();
      report.steps.push_back(rec);
      state = res.state;
      if (report.total_tuning_seconds() >= req.max_total_seconds) break;
    }
    report.best_time = env->best_time();
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  out.wall_ms = ms_since(t0);
  for (const char* k : kTopLevel) out.attributed_ms += L[k].ms - before[k];
  return out;
}

/// Bit-for-bit agreement of a replay with run_session's report.
bool same_result(const Replay& r, const service::SessionReport& s,
                 std::string& why) {
  if (r.ok != s.ok) {
    why = "ok differs (replay " + std::to_string(r.ok) + ", run_session " +
          std::to_string(s.ok) + ")";
    return false;
  }
  if (!r.ok) {
    if (r.error != s.error) why = "error text differs";
    return r.error == s.error;
  }
  if (r.report.best_time != s.report.best_time) {
    why = "best_time differs";
    return false;
  }
  if (r.report.steps.size() != s.report.steps.size()) {
    why = "step count differs";
    return false;
  }
  for (std::size_t i = 0; i < r.report.steps.size(); ++i) {
    if (r.report.steps[i].exec_seconds != s.report.steps[i].exec_seconds) {
      why = "exec_seconds differs at step " + std::to_string(i + 1);
      return false;
    }
  }
  return true;
}

// FLOPs of one dense forward pass over `batch` rows: 2*batch*sum(in*out).
double mlp_forward_flops(std::size_t batch, std::size_t in,
                         const std::vector<std::size_t>& hidden,
                         std::size_t out) {
  double f = 0.0;
  std::size_t prev = in;
  for (const std::size_t h : hidden) {
    f += static_cast<double>(prev * h);
    prev = h;
  }
  f += static_cast<double>(prev * out);
  return 2.0 * static_cast<double>(batch) * f;
}

// FLOPs of one Td3Agent::train_step, from the layer sizes. A backward pass
// costs two forwards (input and weight gradients). Per step: target actor
// forward, two target critic forwards, two critic forward+backward; every
// policy_delay steps the actor update (actor fwd+bwd, critic1 fwd+bwd) and
// the reporting forward (actor + critic1).
double train_step_flops(const rl::Td3Config& c) {
  const double fa =
      mlp_forward_flops(c.batch_size, c.state_dim, c.hidden, c.action_dim);
  const double fc = mlp_forward_flops(c.batch_size, c.state_dim + c.action_dim,
                                      c.hidden, 1);
  const double per_step = fa + 2.0 * fc + 2.0 * 3.0 * fc;
  const double per_policy = 3.0 * fa + 3.0 * fc + fa + fc;
  return per_step + per_policy / static_cast<double>(c.policy_delay);
}

void emit(std::ostream& os, bool& first, const std::string& key, double v) {
  os << (first ? "" : ",") << '"' << key << "\":" << v;
  first = false;
}

int cmd_trace(const std::string& ckpt, const std::string& requests_path,
              const std::string& scratch) {
  Master master(ckpt);
  const std::string file_bytes = read_file(ckpt);
  const bool blob_roundtrip = file_bytes == master.blob;
  const auto requests = read_requests(requests_path);

  Layers L;
  common::simd::reset_dispatch_counts();
  std::vector<double> wall, attributed, modeled, measured, train_steps;
  std::size_t faithful = 0, failed = 0;
  std::string mismatch;
  for (const auto& req : requests) {
    const Replay r = replay_session(master, req, L);
    const service::SessionReport s = served_session(master, req);
    std::string why;
    if (same_result(r, s, why)) {
      ++faithful;
    } else if (mismatch.empty()) {
      mismatch = req.id + ": " + why;
    }
    if (!r.ok) {
      ++failed;
      continue;
    }
    wall.push_back(r.wall_ms);
    attributed.push_back(r.attributed_ms);
    modeled.push_back(r.modeled_rec_s);
    measured.push_back(r.act_screen_train_ms / 1e3);
    train_steps.push_back(static_cast<double>(r.train_steps));
  }
  const auto dc = common::simd::dispatch_counts();
  const double paid_evals = static_cast<double>(L["sparksim.eval"].n +
                                                L["streamsim.window"].n);

  // A sample without streaming requests still reports the per-window cost
  // of StreamEnvironment::step, timed directly on one streaming case.
  if (L["streamsim.window"].n == 0) {
    const streamsim::StreamCase& sc = streamsim::stream_suite().front();
    sparksim::EnvOptions env_options = serve_api().env;
    streamsim::StreamEnvironment env(sparksim::cluster_a(), sc, env_options);
    (void)env.reset();
    const std::vector<double> mid(env.action_dim(), 0.5);
    for (int w = 0; w < 12; ++w) {
      timed(L["streamsim.window"], [&] { (void)env.step(mid); });
    }
  }

  // Fixed per-layer costs, each the median of a few calls.
  std::vector<double> snap, publish, fine_tune;
  for (int i = 0; i < 5; ++i) {
    snap.push_back(time_ms([&] {
      (void)service::checkpoint_to_string(master.model);
    }));
  }
  const std::string publish_path = scratch + "/publish.dckp";
  for (int i = 0; i < 3; ++i) {
    publish.push_back(time_ms([&] {
      service::save_checkpoint_file(publish_path, master.model);
    }));
  }
  std::filesystem::remove(publish_path);
  // Master fine-tune on a private copy of the master (4 = the serving
  // default --master-steps).
  {
    core::DeepCat copy(sparksim::cluster_a(), serve_api());
    service::checkpoint_from_string(master.blob, copy);
    for (int i = 0; i < 3; ++i) {
      fine_tune.push_back(time_ms([&] {
        (void)copy.tuner().agent().fine_tune(*copy.tuner().replay(),
                                             copy.tuner().rng(), 4);
      }));
    }
  }

  // GEMM at the TD3 shapes (batch 64, critic input 41, hidden 128).
  rl::Td3Agent& agent = master.model.tuner().agent();
  const rl::Td3Config& cfg = agent.config();
  const std::size_t in = cfg.state_dim + cfg.action_dim;
  const std::size_t h = cfg.hidden.empty() ? 128 : cfg.hidden.front();
  const std::size_t b = cfg.batch_size;
  common::Rng fill(7);
  std::vector<double> a1(b * in), w1(in * h), a2(b * h), w2(h * h), c(b * h);
  for (auto* v : {&a1, &w1, &a2, &w2}) {
    for (double& x : *v) x = fill.uniform() - 0.5;
  }
  std::vector<double> gemm_ns;
  constexpr int kGemmReps = 200;
  for (int rep = 0; rep < 7; ++rep) {
    gemm_ns.push_back(time_ms([&] {
      for (int i = 0; i < kGemmReps; ++i) {
        common::simd::gemm_nn(b, h, in, a1.data(), in, w1.data(), h,
                              c.data(), h);
        common::simd::gemm_nn(b, h, h, a2.data(), h, w2.data(), h, c.data(),
                              h);
      }
    }));
  }
  const double gemm_flops =
      kGemmReps * 2.0 * static_cast<double>(b * h * in + b * h * h);

  nn::Mlp* critic = nullptr;
  for (auto& [name, net] : agent.networks()) {
    if (std::string(name) == "critic1") critic = net;
  }
  nn::Matrix x(b, in);
  for (double& v : x.flat()) v = fill.uniform();
  std::vector<double> fwd;
  constexpr int kFwdReps = 50;
  for (int rep = 0; rep < 7; ++rep) {
    fwd.push_back(time_ms([&] {
      for (int i = 0; i < kFwdReps; ++i) (void)critic->forward(x);
    }));
  }
  const double fwd_flops = kFwdReps * mlp_forward_flops(b, in, cfg.hidden, 1);

  const double screens = static_cast<double>(L["tuners.screen"].n);
  const double all_calls = static_cast<double>(
      dc.scalar_calls + dc.avx2_calls + dc.avx512_calls);
  const double train_ms = median(L["rl.train_step"].each);

  std::ostream& os = std::cout;
  os.precision(10);
  os << '{';
  bool first = true;
  emit(os, first, "sessions", static_cast<double>(requests.size()));
  emit(os, first, "failed_sessions", static_cast<double>(failed));
  emit(os, first, "faithful_sessions", static_cast<double>(faithful));
  emit(os, first, "blob_roundtrip_equal", blob_roundtrip ? 1.0 : 0.0);
  emit(os, first, "session_wall_ms_sum", sum(wall));
  emit(os, first, "session_wall_ms_p50", median(wall));
  emit(os, first, "attributed_ms_sum", sum(attributed));
  emit(os, first, "train_step_ms_sum", L["rl.train_step"].ms);
  emit(os, first, "trace.unattributed_frac",
       sum(wall) > 0 ? 1.0 - sum(attributed) / sum(wall) : 0.0);
  emit(os, first, "core.construct_ms", median(L["core.construct"].each));
  emit(os, first, "service.clone_ms", median(L["service.clone"].each));
  emit(os, first, "service.blob_mb",
       static_cast<double>(master.blob.size()) / 1e6);
  emit(os, first, "service.snapshot_ms", median(snap));
  emit(os, first, "service.publish_ms", median(publish));
  emit(os, first, "tuners.screen_ms", median(L["tuners.screen"].each));
  emit(os, first, "tuners.twinq_iters_per_screen",
       screens > 0 ? L["tuners.twinq_iters"].ms / screens : 0.0);
  emit(os, first, "tuners.twinq_pass_frac",
       screens > 0 ? L["tuners.twinq_pass"].ms / screens : 0.0);
  emit(os, first, "tuners.rec_model_vs_wall",
       sum(measured) > 0 ? sum(modeled) / sum(measured) : 0.0);
  emit(os, first, "rl.train_step_ms", train_ms);
  emit(os, first, "rl.train_steps_per_req", sum(train_steps) /
       std::max<double>(1.0, static_cast<double>(train_steps.size())));
  emit(os, first, "rl.act_us", 1e3 * median(L["rl.act"].each));
  emit(os, first, "rl.replay_sample_us",
       1e3 * median(L["rl.replay_sample"].each));
  emit(os, first, "rl.master_fine_tune_ms", median(fine_tune));
  emit(os, first, "nn.train_step_gflops",
       train_ms > 0 ? train_step_flops(cfg) / (train_ms * 1e6) : 0.0);
  emit(os, first, "nn.critic_forward_gflops",
       fwd_flops / (median(fwd) * 1e6));
  emit(os, first, "common.gemm_calls_per_train_step",
       L["common.gemm_calls"].n > 0
           ? L["common.gemm_calls"].ms /
                 static_cast<double>(L["common.gemm_calls"].n)
           : 0.0);
  emit(os, first, "common.packed_calls", static_cast<double>(dc.packed_calls));
  emit(os, first, "common.avx512_share",
       all_calls > 0 ? static_cast<double>(dc.avx512_calls) / all_calls : 0.0);
  emit(os, first, "common.gemm_td3_gflops",
       gemm_flops / (median(gemm_ns) * 1e6));
  emit(os, first, "sparksim.eval_ms", median(L["sparksim.eval"].each));
  emit(os, first, "sparksim.env_ms", median(L["sparksim.env"].each));
  emit(os, first, "sparksim.evals_per_req",
       paid_evals / std::max<double>(1.0, static_cast<double>(wall.size())));
  emit(os, first, "streamsim.window_ms", median(L["streamsim.window"].each));
  emit(os, first, "rec_cost.kActorForward", tuners::rec_cost::kActorForward);
  emit(os, first, "rec_cost.kCriticPair", tuners::rec_cost::kCriticPair);
  emit(os, first, "rec_cost.kTrainStep", tuners::rec_cost::kTrainStep);
  os << ",\"mismatch\":\"" << service::json_escape(mismatch) << "\"}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 4 && args[0] == "check") {
      return cmd_check(args[1], args[2],
                       static_cast<std::size_t>(std::stoul(args[3])));
    }
    if (args.size() == 4 && args[0] == "trace") {
      return cmd_trace(args[1], args[2], args[3]);
    }
    std::cerr << "usage: perfbench_probe check <master.dckp> <requests.jsonl> "
                 "<threads>\n"
                 "       perfbench_probe trace <master.dckp> <requests.jsonl> "
                 "<scratch_dir>\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << '\n';
    return 1;
  }
}
