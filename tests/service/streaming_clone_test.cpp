// StreamingService clones every session straight out of the in-memory
// master. The reference path is run_session over the master's serialized
// checkpoint, so served reports must equal it bit for bit: for 1- and
// 5-step requests, over two epochs with a flush (merge + master fine-tune)
// between them, at 1 and 4 threads, for RDPER and uniform-replay masters.
// With 4 threads, concurrent sessions clone one master at once, which the
// service suites also run under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <vector>

#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/streaming.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

StreamingOptions clone_options(std::size_t threads, bool use_rdper) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.tuner.use_rdper = use_rdper;
  o.service.api.env.seed = 1007;
  o.master_update_steps = 2;
  return o;
}

std::vector<TuningRequest> round_requests(int round, int steps) {
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D2", "KM-D1", "SA-P1"};
  std::vector<TuningRequest> reqs;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    TuningRequest r;
    r.id = "r" + std::to_string(round) + "-" + std::to_string(i);
    r.workload = cases[i];
    r.cluster = i % 2 == 1 ? "b" : "a";
    r.max_steps = steps;
    r.seed = 300 + 10 * static_cast<std::uint64_t>(round) + i;
    reqs.push_back(r);
  }
  return reqs;
}

/// What run_session over `blob` answers, with the pools shared the way the
/// served path shares them: through a view over a master loaded from the
/// same bytes (RDPER), or the blob's own private buffer (uniform).
SessionReport blob_session(const std::string& blob,
                           const core::DeepCatApiOptions& api,
                           const TuningRequest& request) {
  core::DeepCat master(sparksim::cluster_a(), api);
  checkpoint_from_string(blob, master);
  std::shared_mutex mutex;
  const auto* pools =
      dynamic_cast<const rl::RdperReplay*>(master.tuner().replay());
  return run_session(blob, api, request, pools, &mutex);
}

void expect_same_session(const SessionReport& served,
                         const SessionReport& reference) {
  SCOPED_TRACE(served.id);
  EXPECT_EQ(served.ok, reference.ok);
  EXPECT_EQ(served.error, reference.error);
  EXPECT_EQ(served.report.best_time, reference.report.best_time);
  ASSERT_EQ(served.report.steps.size(), reference.report.steps.size());
  for (std::size_t i = 0; i < served.report.steps.size(); ++i) {
    EXPECT_EQ(served.report.steps[i].exec_seconds,
              reference.report.steps[i].exec_seconds)
        << "step " << i;
    EXPECT_EQ(served.report.steps[i].reward, reference.report.steps[i].reward)
        << "step " << i;
  }
  ASSERT_EQ(served.new_transitions.size(), reference.new_transitions.size());
  for (std::size_t i = 0; i < served.new_transitions.size(); ++i) {
    EXPECT_EQ(served.new_transitions[i].action,
              reference.new_transitions[i].action)
        << "transition " << i;
  }
}

void expect_served_equals_blob_path(std::size_t threads, bool use_rdper,
                                    int steps) {
  SCOPED_TRACE("threads " + std::to_string(threads) + ", steps " +
               std::to_string(steps) + (use_rdper ? ", RDPER" : ", uniform"));
  StreamingService svc(clone_options(threads, use_rdper));
  // Past one 64-row batch, so epoch 1 already carries trained Adam states.
  svc.train_model("default",
                  sparksim::make_workload(sparksim::WorkloadType::kTeraSort,
                                          3.2),
                  100);
  ASSERT_GT(svc.master().tuner().agent().train_steps(), 0u);
  std::size_t ok = 0;
  for (int round = 0; round < 2; ++round) {
    const std::string blob = svc.checkpoint_of("default");
    const std::uint64_t epoch = svc.model_epoch("default");
    const std::vector<TuningRequest> reqs = round_requests(round, steps);
    for (const auto& r : reqs) svc.submit(r);
    std::size_t served = 0;
    while (auto report = svc.wait_completed()) {
      ++served;
      EXPECT_EQ(report->model_epoch, epoch);
      const auto request = std::find_if(
          reqs.begin(), reqs.end(), [&](const TuningRequest& r) {
            return r.id == report->session.id;
          });
      ASSERT_NE(request, reqs.end()) << report->session.id;
      expect_same_session(
          report->session,
          blob_session(blob, svc.options().service.api, *request));
      if (report->session.ok) ++ok;
    }
    EXPECT_EQ(served, reqs.size());
    (void)svc.flush();
  }
  EXPECT_GT(ok, 0u);
  if (use_rdper) EXPECT_EQ(svc.model_epoch("default"), 3u);
}

TEST(StreamingCloneTest, ServedSessionsMatchBlobSessionsAcrossEpochs) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const int steps : {1, 5}) {
      expect_served_equals_blob_path(threads, /*use_rdper=*/true, steps);
    }
  }
}

TEST(StreamingCloneTest, UniformReplayMasterMatchesBlobSessions) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const int steps : {1, 5}) {
      expect_served_equals_blob_path(threads, /*use_rdper=*/false, steps);
    }
  }
}

// A master whose load failed stays resident without an agent; serving it
// must end as a typed failed report, not a clone of unbuilt networks.
TEST(StreamingCloneTest, MasterWithoutTrainedAgentAnswersTypedFailure) {
  StreamingService svc(clone_options(2, true));
  std::istringstream garbage("not a checkpoint", std::ios::binary);
  EXPECT_THROW(svc.load_model("broken", garbage), CheckpointError);
  ASSERT_TRUE(svc.has_model("broken"));

  TuningRequest r = round_requests(0, 1).front();
  r.model = "broken";
  svc.submit(r);
  const auto report = svc.wait_completed();
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->session.ok);
  EXPECT_NE(report->session.error.find("no trained agent"), std::string::npos)
      << report->session.error;
  EXPECT_TRUE(svc.idle());

  std::shared_mutex mutex;
  const SessionReport direct = run_session(
      svc.master("broken"), svc.options().service.api, r, mutex);
  EXPECT_FALSE(direct.ok);
  EXPECT_NE(direct.error.find("no trained agent"), std::string::npos)
      << direct.error;
}

}  // namespace
}  // namespace deepcat::service
