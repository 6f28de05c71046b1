// Batch serving (serve_batch over StreamingService): results independent
// of thread-pool size, reports in request order, failures isolated per
// session, experience merged back into the master pools, the batch's
// request-order metrics, and the versioned on-disk model registry.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"
#include "test_paths.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

/// Batch-service settings: no master fine-tune at the flush, like
/// `deepcat serve --requests`.
StreamingOptions small_service_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = 0;
  return o;
}

const sparksim::WorkloadSpec& training_workload() {
  static const auto workload =
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2);
  return workload;
}

/// Sessions of a batch, in the order serve_batch returned them.
std::vector<SessionReport> sessions_of(const BatchResult& batch) {
  std::vector<SessionReport> sessions;
  for (const auto& r : batch.reports) sessions.push_back(r.session);
  return sessions;
}

/// ≥ 8 mixed-workload requests (all four workload types, both clusters)
/// with per-request seeds — the acceptance-criterion batch shape.
std::vector<TuningRequest> mixed_batch() {
  std::vector<TuningRequest> reqs;
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1",
                         "WC-D2", "TS-D2", "PR-D2", "KM-D2"};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    TuningRequest r;
    r.id = "req-" + std::to_string(i);
    r.workload = cases[i];
    r.cluster = i % 3 == 2 ? "b" : "a";
    r.max_steps = 2;
    r.seed = 100 + i;
    reqs.push_back(r);
  }
  return reqs;
}

void expect_session_reports_identical(const SessionReport& a,
                                      const SessionReport& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.report.default_time, b.report.default_time);
  EXPECT_EQ(a.report.best_time, b.report.best_time);
  ASSERT_EQ(a.report.steps.size(), b.report.steps.size());
  for (std::size_t s = 0; s < a.report.steps.size(); ++s) {
    EXPECT_EQ(a.report.steps[s].exec_seconds, b.report.steps[s].exec_seconds);
    EXPECT_EQ(a.report.steps[s].reward, b.report.steps[s].reward);
    EXPECT_EQ(a.report.steps[s].recommendation_seconds,
              b.report.steps[s].recommendation_seconds);
  }
  ASSERT_EQ(a.new_transitions.size(), b.new_transitions.size());
  for (std::size_t t = 0; t < a.new_transitions.size(); ++t) {
    EXPECT_EQ(a.new_transitions[t].reward, b.new_transitions[t].reward);
    EXPECT_EQ(a.new_transitions[t].state, b.new_transitions[t].state);
    EXPECT_EQ(a.new_transitions[t].action, b.new_transitions[t].action);
  }
}

TEST(ServiceTest, BatchResultsIndependentOfThreadCount) {
  StreamingService wide(small_service_options(4));
  wide.train_model("default", training_workload(), 40);
  std::stringstream master(wide.checkpoint_of("default"));

  StreamingService narrow(small_service_options(1));
  narrow.load_model("default", master);

  const auto requests = mixed_batch();
  const BatchResult wide_batch = serve_batch(wide, requests);
  const BatchResult narrow_batch = serve_batch(narrow, requests);
  const auto ra = sessions_of(wide_batch);
  const auto rb = sessions_of(narrow_batch);
  ASSERT_EQ(ra.size(), requests.size());
  ASSERT_EQ(rb.size(), requests.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, requests[i].id) << "reports must be in request order";
    EXPECT_TRUE(ra[i].ok) << ra[i].error;
    expect_session_reports_identical(ra[i], rb[i]);
  }
  // Request-order accumulation: the float aggregates are bit-identical
  // too, not merely close.
  EXPECT_EQ(wide_batch.metrics.mean_speedup, narrow_batch.metrics.mean_speedup);
  EXPECT_EQ(wide_batch.metrics.evaluation_seconds,
            narrow_batch.metrics.evaluation_seconds);
  EXPECT_EQ(wide.checkpoint_of("default"), narrow.checkpoint_of("default"));
}

TEST(ServiceTest, EqualKeyRequestsMergeInRequestOrderForAnyThreadCount) {
  // Two lines share (id, seed, workload) but not their step budget; the
  // longer one comes first, so with several threads it completes last.
  // The merge must still follow request order, never completion order.
  StreamingService trainer(small_service_options(1));
  trainer.train_model("default", training_workload(), 40);
  const std::string master = trainer.checkpoint_of("default");

  std::vector<TuningRequest> requests(2);
  for (auto& r : requests) {
    r.id = "dup";
    r.workload = "TS-D1";
    r.seed = 11;
  }
  requests[0].max_steps = 12;
  requests[1].max_steps = 1;

  std::vector<std::string> checkpoints;
  for (const std::size_t threads : {1u, 4u}) {
    StreamingService svc(small_service_options(threads));
    std::stringstream in(master);
    svc.load_model("default", in);
    const BatchResult batch = serve_batch(svc, requests);
    for (const auto& r : batch.reports) EXPECT_TRUE(r.session.ok);
    EXPECT_EQ(batch.metrics.merges, 1u);
    checkpoints.push_back(svc.checkpoint_of("default"));
  }
  // Compared as booleans: a mismatch would print megabytes of blob.
  EXPECT_TRUE(checkpoints[0] != master);
  EXPECT_TRUE(checkpoints[0] == checkpoints[1]);
}

TEST(ServiceTest, FailedSessionIsIsolatedAndReported) {
  StreamingService svc(small_service_options(2));
  svc.train_model("default", training_workload(), 30);

  auto requests = mixed_batch();
  requests.resize(3);
  requests[1].workload = "NOT-A-WORKLOAD";
  const BatchResult batch = serve_batch(svc, requests);
  const auto reports = sessions_of(batch);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[0].ok) << reports[0].error;
  EXPECT_FALSE(reports[1].ok);
  EXPECT_FALSE(reports[1].error.empty());
  EXPECT_TRUE(reports[2].ok) << reports[2].error;

  // served counts successful sessions; failures are tracked separately.
  for (const auto& m : {batch.metrics, svc.metrics()}) {
    EXPECT_EQ(m.sessions_served, 2u);
    EXPECT_EQ(m.sessions_failed, 1u);
  }
}

TEST(ServiceTest, SessionExperienceMergesIntoMasterPools) {
  StreamingService svc(small_service_options(2));
  svc.train_model("default", training_workload(), 30);

  const auto* pools = dynamic_cast<const rl::RdperReplay*>(
      svc.master("default").tuner().replay());
  ASSERT_NE(pools, nullptr);
  const std::size_t before = pools->size();

  auto requests = mixed_batch();
  requests.resize(4);
  const BatchResult batch = serve_batch(svc, requests);
  const auto reports = sessions_of(batch);
  std::size_t generated = 0;
  for (const auto& r : reports) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.new_transitions.empty());
    generated += r.new_transitions.size();
  }
  EXPECT_EQ(pools->size(), before + generated);
  // One flush, one merge, no master fine-tune (master_update_steps = 0).
  EXPECT_EQ(batch.metrics.merges, 1u);
  EXPECT_EQ(batch.metrics.merged_transitions, generated);
  EXPECT_EQ(batch.metrics.fine_tune_steps, 0u);
}

TEST(ServiceTest, MetricsAggregateAcrossBatch) {
  StreamingService svc(small_service_options(3));
  svc.train_model("default", training_workload(), 30);

  const auto requests = mixed_batch();
  const BatchResult batch = serve_batch(svc, requests);
  std::size_t evals = 0;
  for (const auto& r : batch.reports) evals += r.session.report.steps.size();

  const auto& m = batch.metrics;
  EXPECT_EQ(m.sessions_served, requests.size());
  EXPECT_EQ(m.sessions_failed, 0u);
  EXPECT_EQ(m.evaluations_paid, evals);
  EXPECT_GT(m.evaluation_seconds, 0.0);
  EXPECT_GT(m.recommendation_seconds, 0.0);
  EXPECT_GT(m.p50_recommendation_seconds, 0.0);
  EXPECT_GE(m.p95_recommendation_seconds, m.p50_recommendation_seconds);
  EXPECT_GT(m.mean_speedup, 0.0);
}

TEST(ServiceTest, RegistryPublishesMonotonicVersions) {
  const std::string dir = tests::unique_temp_path("deepcat_registry_test");
  std::filesystem::remove_all(dir);  // stale versions from earlier runs
  ModelRegistry registry(dir);
  EXPECT_FALSE(registry.latest_version("prod").has_value());

  StreamingService svc(small_service_options(1));
  svc.train_model("default", training_workload(), 30);

  const std::uint32_t v1 = registry.publish("prod", svc.master("default"));
  const std::uint32_t v2 = registry.publish("prod", svc.master("default"));
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(v2, 2u);
  ASSERT_TRUE(registry.latest_version("prod").has_value());
  EXPECT_EQ(*registry.latest_version("prod"), 2u);
  EXPECT_NE(registry.path_for("prod", 2).find("prod.v2.dckp"),
            std::string::npos);
  // Names are independent version streams.
  EXPECT_FALSE(registry.latest_version("staging").has_value());

  core::DeepCat restored(sparksim::cluster_a(),
                         small_service_options(1).service.api);
  registry.load_into("prod", 2, restored);
  const auto workload = sparksim::make_workload(WorkloadType::kPageRank, 0.5);
  // The restored model tunes identically to the publishing master.
  std::stringstream master_blob(svc.checkpoint_of("default"));
  core::DeepCat from_blob(sparksim::cluster_a(),
                          small_service_options(1).service.api);
  load_checkpoint(master_blob, from_blob);
  const auto ra = restored.tune_online(workload, {.max_steps = 2});
  const auto rb = from_blob.tune_online(workload, {.max_steps = 2});
  EXPECT_EQ(ra.best_time, rb.best_time);
  EXPECT_EQ(ra.default_time, rb.default_time);
}

}  // namespace
}  // namespace deepcat::service
