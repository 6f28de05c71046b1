// Concurrency stress for the service layer, written to run clean under
// TSan/ASan: many sessions share the master pools while a checkpoint
// writer hammers checkpoint_of from another thread. Asserts (a) every
// concurrently-written checkpoint is a consistent snapshot (loads
// cleanly — no torn reads), and (b) per-session reports are a pure
// function of their seeds regardless of scheduling.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/checkpoint.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

StreamingOptions stress_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 21;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1021;
  o.master_update_steps = 0;
  return o;
}

void train(StreamingService& svc) {
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 30);
}

std::vector<TuningRequest> stress_batch(std::size_t n) {
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1"};
  std::vector<TuningRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    TuningRequest r;
    r.id = "stress-" + std::to_string(i);
    r.workload = cases[i % std::size(cases)];
    r.max_steps = 2;
    r.seed = 500 + i;
    reqs.push_back(r);
  }
  return reqs;
}

TEST(ServiceStressTest, ConcurrentCheckpointWritesAreNeverTorn) {
  StreamingService svc(stress_options(4));
  train(svc);

  // Checkpoint writer racing the batch and its merge: every blob it
  // produces must load cleanly into a fresh model — a torn read of
  // half-merged pools or mid-update networks would fail the CRC or the
  // section decoders.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> snapshots{0};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::stringstream ss(svc.checkpoint_of("default"));
      core::DeepCat probe(sparksim::cluster_a(),
                          stress_options(1).service.api);
      EXPECT_NO_THROW(load_checkpoint(ss, probe));
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const BatchResult batch = serve_batch(svc, stress_batch(12));
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  ASSERT_EQ(batch.reports.size(), 12u);
  for (const auto& r : batch.reports) {
    EXPECT_TRUE(r.session.ok) << r.session.id << ": " << r.session.error;
  }
  EXPECT_GT(snapshots.load(), 0u);
}

TEST(ServiceStressTest, ReportsAreDeterministicPerSessionSeed) {
  // Two services, identically trained, batches run under different pool
  // sizes and scheduling: per-session reports must match field for field.
  StreamingService a(stress_options(4));
  train(a);
  std::stringstream blob(a.checkpoint_of("default"));
  StreamingService b(stress_options(2));
  b.load_model("default", blob);

  const auto batch = stress_batch(12);
  const BatchResult batch_a = serve_batch(a, batch);
  const BatchResult batch_b = serve_batch(b, batch);
  std::vector<SessionReport> ra, rb;
  for (const auto& r : batch_a.reports) ra.push_back(r.session);
  for (const auto& r : batch_b.reports) rb.push_back(r.session);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, batch[i].id);
    EXPECT_EQ(ra[i].ok, rb[i].ok);
    EXPECT_EQ(ra[i].report.best_time, rb[i].report.best_time);
    EXPECT_EQ(ra[i].report.default_time, rb[i].report.default_time);
    EXPECT_EQ(ra[i].new_transitions.size(), rb[i].new_transitions.size());
  }

  // Sessions with distinct seeds explore distinct configurations: the
  // batch must not collapse into one shared trajectory.
  bool any_difference = false;
  for (std::size_t i = 1; i < ra.size(); ++i) {
    if (ra[i].workload == ra[0].workload &&
        ra[i].report.best_time != ra[0].report.best_time) {
      any_difference = true;
    }
  }
  // Same workload, different seed => different session (ids 0,4,8 are all
  // WC-D1 with seeds 500, 504, 508).
  EXPECT_TRUE(any_difference);
}

TEST(ServiceStressTest, BackToBackBatchesAccumulateExperience) {
  StreamingService svc(stress_options(3));
  train(svc);

  const BatchResult first = serve_batch(svc, stress_batch(6));
  const BatchResult second = serve_batch(svc, stress_batch(6));
  for (const auto& r : first.reports) EXPECT_TRUE(r.session.ok);
  for (const auto& r : second.reports) EXPECT_TRUE(r.session.ok);
  // The second batch was served by the epoch the first one's merge made.
  EXPECT_EQ(first.reports.front().model_epoch, 1u);
  EXPECT_EQ(second.reports.front().model_epoch, 2u);
  EXPECT_EQ(second.metrics.sessions_served, 6u);

  const auto m = svc.metrics();
  EXPECT_EQ(m.sessions_served, 12u);
  EXPECT_EQ(m.sessions_failed, 0u);
  EXPECT_EQ(m.merges, 2u);
}

}  // namespace
}  // namespace deepcat::service
