// StreamingService behavior: streaming results match the batch path,
// model epochs advance only on merging flushes, unknown models fail as
// reports (never exceptions), multi-model routing lazily loads from the
// registry and republishes on eviction, and a framed wire stream is
// served end to end.
#include "service/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/service.hpp"
#include "service/sharding.hpp"
#include "service/wire.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

StreamingOptions small_streaming_options(std::size_t threads,
                                         std::size_t master_steps = 0) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = master_steps;
  return o;
}

std::vector<TuningRequest> mixed_requests(std::size_t count) {
  std::vector<TuningRequest> reqs;
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1",
                         "WC-D2", "TS-D2", "PR-D2", "KM-D2"};
  for (std::size_t i = 0; i < count; ++i) {
    TuningRequest r;
    r.id = "req-" + std::to_string(i);
    r.workload = cases[i % std::size(cases)];
    r.cluster = i % 3 == 2 ? "b" : "a";
    r.max_steps = 2;
    r.seed = 100 + i;
    reqs.push_back(r);
  }
  return reqs;
}

std::vector<StreamReport> drain(StreamingService& svc) {
  std::vector<StreamReport> reports;
  while (auto r = svc.wait_completed()) reports.push_back(std::move(*r));
  return reports;
}

TEST(StreamingTest, MatchesBatchServiceWithoutMasterUpdates) {
  // With master_update_steps = 0, submissions drained by one flush are
  // the batch path (serve_batch) under any thread count: identical
  // per-request reports, and a canonical-order merge that equals the
  // request-order merge into the master pools for id-sorted requests.
  const auto workload = sparksim::make_workload(WorkloadType::kTeraSort, 3.2);

  StreamingService batch(small_streaming_options(2));
  batch.train_model("default", workload, 40);
  const std::string master_blob = batch.checkpoint_of("default");

  StreamingService streaming(small_streaming_options(4));
  std::istringstream blob_in(master_blob, std::ios::binary);
  streaming.load_model("default", blob_in);

  const auto requests = mixed_requests(8);
  const BatchResult batch_result = serve_batch(batch, requests);
  for (const auto& r : requests) streaming.submit(r);
  auto stream_reports = drain(streaming);
  EXPECT_EQ(streaming.flush(), batch_result.metrics.merged_transitions);

  ASSERT_EQ(stream_reports.size(), batch_result.reports.size());
  std::sort(stream_reports.begin(), stream_reports.end(),
            [](const StreamReport& a, const StreamReport& b) {
              return a.session.id < b.session.id;
            });
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& s = stream_reports[i].session;
    const auto& b = batch_result.reports[i].session;
    EXPECT_EQ(b.id, requests[i].id) << "batch reports come in request order";
    EXPECT_EQ(s.id, b.id);
    EXPECT_TRUE(s.ok) << s.error;
    EXPECT_EQ(s.report.best_time, b.report.best_time);
    EXPECT_EQ(s.report.default_time, b.report.default_time);
    ASSERT_EQ(s.new_transitions.size(), b.new_transitions.size());
    EXPECT_EQ(stream_reports[i].model_epoch, 1u)
        << "all sessions served from the initial epoch snapshot";
  }

  // Reference: the batch's experience appended to a copy of the master in
  // request order.
  core::DeepCat reference(sparksim::cluster_a(),
                          small_streaming_options(1).service.api);
  checkpoint_from_string(master_blob, reference);
  for (const auto& r : batch_result.reports) {
    for (const auto& t : r.session.new_transitions) {
      reference.tuner().replay()->add(t);
    }
  }
  const std::string request_order = checkpoint_to_string(reference);
  EXPECT_EQ(batch.checkpoint_of("default"), request_order);
  EXPECT_EQ(streaming.checkpoint_of("default"), request_order)
      << "canonical-order merge must equal the request-order merge for "
         "id-sorted requests";
}

TEST(StreamingTest, EpochAdvancesOnlyWhenAFlushMerges) {
  StreamingService svc(small_streaming_options(2, /*master_steps=*/2));
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
  EXPECT_EQ(svc.model_epoch("default"), 1u);

  EXPECT_EQ(svc.flush(), 0u);
  EXPECT_EQ(svc.model_epoch("default"), 1u) << "empty flush is a no-op";

  const auto requests = mixed_requests(3);
  for (const auto& r : requests) svc.submit(r);
  const auto reports = drain(svc);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) EXPECT_TRUE(r.session.ok) << r.session.error;

  const auto* pools =
      dynamic_cast<const rl::RdperReplay*>(svc.master("default").tuner().replay());
  ASSERT_NE(pools, nullptr);
  const std::size_t before = pools->size();
  const std::size_t merged = svc.flush();
  EXPECT_GT(merged, 0u);
  EXPECT_EQ(pools->size(), before + merged);
  EXPECT_EQ(svc.model_epoch("default"), 2u);

  // The next request is served against the post-merge epoch.
  svc.submit(requests[0]);
  const auto next = drain(svc);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].model_epoch, 2u);
}

TEST(StreamingTest, UnknownModelFailsAsReportNotException) {
  StreamingService svc(small_streaming_options(1));
  TuningRequest r;
  r.id = "lost";
  r.workload = "TS-D1";
  r.model = "no-such-model";
  svc.submit(r);
  const auto reports = drain(svc);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].session.ok);
  EXPECT_NE(reports[0].session.error.find("no-such-model"), std::string::npos);
  const auto m = svc.metrics();
  EXPECT_EQ(m.sessions_failed, 1u);
  EXPECT_EQ(m.sessions_served, 0u);
}

TEST(StreamingTest, RoutesAcrossModelsAndLazilyLoadsFromRegistry) {
  const std::string dir = ::testing::TempDir() + "deepcat_streaming_routing";
  std::filesystem::remove_all(dir);
  const auto workload = sparksim::make_workload(WorkloadType::kTeraSort, 3.2);

  {
    // Publish two distinct models out of band.
    StreamingOptions o = small_streaming_options(1);
    StreamingService trainer(o);
    ModelRegistry registry(dir);
    trainer.train_model("alpha", workload, 40);
    (void)registry.publish("alpha", trainer.master("alpha"));
    trainer.train_model("beta", workload, 60);
    (void)registry.publish("beta", trainer.master("beta"));
  }

  StreamingOptions o = small_streaming_options(2);
  o.registry_dir = dir;
  StreamingService svc(o);
  EXPECT_FALSE(svc.has_model("alpha"));

  auto requests = mixed_requests(4);
  requests[0].model = "alpha";
  requests[1].model = "beta";
  requests[2].model = "alpha";
  requests[3].model = "gamma";  // never published
  for (const auto& r : requests) svc.submit(r);
  auto reports = drain(svc);
  ASSERT_EQ(reports.size(), 4u);
  std::sort(reports.begin(), reports.end(),
            [](const StreamReport& a, const StreamReport& b) {
              return a.session.id < b.session.id;
            });
  EXPECT_TRUE(reports[0].session.ok) << reports[0].session.error;
  EXPECT_TRUE(reports[1].session.ok) << reports[1].session.error;
  EXPECT_TRUE(reports[2].session.ok) << reports[2].session.error;
  EXPECT_FALSE(reports[3].session.ok);
  EXPECT_NE(reports[3].session.error.find("gamma"), std::string::npos);
  EXPECT_EQ(reports[0].session.model, "alpha");
  EXPECT_EQ(reports[1].session.model, "beta");
  EXPECT_TRUE(svc.has_model("alpha"));
  EXPECT_TRUE(svc.has_model("beta"));
}

TEST(StreamingTest, EvictionMergesAndRepublishesDirtyModels) {
  const std::string dir = ::testing::TempDir() + "deepcat_streaming_evict";
  std::filesystem::remove_all(dir);
  const auto workload = sparksim::make_workload(WorkloadType::kTeraSort, 3.2);
  {
    StreamingService trainer(small_streaming_options(1));
    ModelRegistry registry(dir);
    trainer.train_model("alpha", workload, 40);
    (void)registry.publish("alpha", trainer.master("alpha"));
    trainer.train_model("beta", workload, 60);
    (void)registry.publish("beta", trainer.master("beta"));
  }

  StreamingOptions o = small_streaming_options(2, /*master_steps=*/1);
  o.registry_dir = dir;
  o.max_loaded_models = 1;
  StreamingService svc(o);

  auto requests = mixed_requests(2);
  requests[0].model = "alpha";
  requests[1].model = "beta";  // forces alpha's eviction at cap 1
  svc.submit(requests[0]);
  // Alpha's session must complete before beta's admission may evict it.
  auto first = drain(svc);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].session.ok) << first[0].session.error;
  svc.submit(requests[1]);
  auto second = drain(svc);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].session.ok) << second[0].session.error;

  EXPECT_FALSE(svc.has_model("alpha")) << "alpha should have been evicted";
  EXPECT_TRUE(svc.has_model("beta"));
  // Eviction is a flush point: alpha's merged experience was republished
  // as a new registry version, so its learning survives.
  ModelRegistry registry(dir);
  ASSERT_TRUE(registry.latest_version("alpha").has_value());
  EXPECT_EQ(*registry.latest_version("alpha"), 2u);
  EXPECT_EQ(*registry.latest_version("beta"), 1u) << "beta is not dirty yet";
}

TEST(StreamingTest, MetricsAggregateWithStreamingQuantiles) {
  StreamingService svc(small_streaming_options(3));
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
  const auto requests = mixed_requests(6);
  for (const auto& r : requests) svc.submit(r);
  const auto reports = drain(svc);

  std::size_t evals = 0;
  for (const auto& r : reports) evals += r.session.report.steps.size();
  const auto m = svc.metrics();
  EXPECT_EQ(m.sessions_served, requests.size());
  EXPECT_EQ(m.sessions_failed, 0u);
  EXPECT_EQ(m.evaluations_paid, evals);
  EXPECT_GT(m.p50_recommendation_seconds, 0.0);
  EXPECT_GE(m.p95_recommendation_seconds, m.p50_recommendation_seconds);
  EXPECT_GT(m.mean_speedup, 0.0);
}

TEST(StreamingTest, WaitCompletedReturnsNulloptWhenIdle) {
  StreamingService svc(small_streaming_options(1));
  EXPECT_FALSE(svc.wait_completed().has_value());
  EXPECT_FALSE(svc.poll_completed().has_value());
}

TEST(StreamingTest, ServeFrameStreamEndToEnd) {
  ShardedStreamingService svc(small_streaming_options(2, /*master_steps=*/1),
                              1);
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);

  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":2,\"seed\":3}"},
      {FrameType::kRequest,
       "{\"id\":\"b\",\"workload\":\"PR-D1\",\"steps\":2,\"seed\":4}"},
      {FrameType::kFlush, ""},
      {FrameType::kRequest,
       "{\"id\":\"c\",\"workload\":\"WC-D1\",\"steps\":2,\"seed\":5}"},
      {FrameType::kEnd, ""},
  });
  std::istringstream in(input, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  const net::FrontEndStats result = net::serve_stream(svc, in, out);
  EXPECT_EQ(result.clean_ends, 1u);
  EXPECT_EQ(result.requests, 3u);
  EXPECT_EQ(result.failed_sessions, 0u);
  EXPECT_EQ(result.protocol_errors, 0u);

  const auto frames = decode_frames(out.str());
  std::size_t reps = 0;
  bool saw_metrics = false;
  std::uint64_t epoch_a = 0, epoch_c = 0;
  for (const auto& f : frames) {
    if (f.type == FrameType::kReply) {
      ++reps;
      if (f.payload.find("\"id\":\"a\"") != std::string::npos) {
        const auto pos = f.payload.find("\"model_epoch\":");
        ASSERT_NE(pos, std::string::npos);
        epoch_a = std::strtoull(f.payload.c_str() + pos + 14, nullptr, 10);
      }
      if (f.payload.find("\"id\":\"c\"") != std::string::npos) {
        const auto pos = f.payload.find("\"model_epoch\":");
        ASSERT_NE(pos, std::string::npos);
        epoch_c = std::strtoull(f.payload.c_str() + pos + 14, nullptr, 10);
      }
    }
    if (f.type == FrameType::kMetrics) {
      saw_metrics = true;
      EXPECT_NE(f.payload.find("\"sessions\":3"), std::string::npos);
    }
  }
  EXPECT_EQ(reps, 3u);
  EXPECT_TRUE(saw_metrics);
  EXPECT_EQ(frames.back().type, FrameType::kEnd);
  EXPECT_EQ(epoch_a, 1u) << "pre-flush request served by the initial epoch";
  EXPECT_EQ(epoch_c, 2u) << "post-flush request served by the merged epoch";
  // The end-of-stream flush merged request c's experience too.
  EXPECT_EQ(svc.model_epoch("default"), 3u);
}

}  // namespace
}  // namespace deepcat::service
