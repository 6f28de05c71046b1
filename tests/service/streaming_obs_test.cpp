// Observability under the streaming determinism contract: with a
// LogicalClock, the deterministic metrics export and the trace structure
// are pure functions of the request set — byte-identical (metrics) and
// structurally identical (trace) across thread counts and arrival
// shuffles — and turning tracing on must not perturb the bit-exact
// master checkpoint.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/server.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "service/jsonl.hpp"
#include "service/sharding.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

StreamingOptions obs_stress_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = 2;
  return o;
}

std::vector<TuningRequest> obs_stress_requests() {
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

struct ObsRunResult {
  std::string checkpoint;
  std::string metrics_jsonl;    ///< deterministic export only
  std::string trace_signature;  ///< structure, not bytes
  std::string tele_payload;     ///< deterministic TELE payload bytes
};

constexpr std::size_t kStressRing = 64;

ObsRunResult run_with_obs(const std::string& master_blob,
                          const std::vector<TuningRequest>& arrival_order,
                          std::size_t threads) {
  obs::LogicalClock clock;
  // Streaming span export at the default (never-drop) settings: spans
  // leave through the sink as they complete, memory stays O(ring + open).
  std::size_t sunk_spans = 0;
  obs::CallbackSpanSink sink(
      [&sunk_spans](const obs::SpanRecord&) { ++sunk_spans; });
  obs::MetricsRegistry registry;
  obs::TracerOptions tracer_options;
  tracer_options.exporter = &sink;
  tracer_options.ring_capacity = kStressRing;
  tracer_options.health = &registry;
  obs::Tracer tracer(clock, tracer_options);
  StreamingOptions options = obs_stress_options(threads);
  options.service.obs = {&registry, &tracer};

  StreamingService svc(options);
  std::istringstream blob(master_blob, std::ios::binary);
  svc.load_model("default", blob);
  for (const auto& r : arrival_order) svc.submit(r);
  while (svc.wait_completed()) {
  }
  (void)svc.flush();

  ObsRunResult result;
  result.checkpoint = svc.checkpoint_of("default");
  std::ostringstream metrics;
  registry.write_jsonl(metrics, /*include_nondeterministic=*/false);
  result.metrics_jsonl = std::move(metrics).str();
  result.trace_signature = tracer.structure_signature();
  tracer.flush_exporter();
  std::ostringstream tele;
  write_telemetry_payload(tele, svc.metrics(),
                          obs::BuildInfo{"stress", "pinned", false, 1},
                          &registry, /*include_nondeterministic=*/false);
  result.tele_payload = std::move(tele).str();

  // The streaming-export contract, asserted on every run: back-pressure
  // never drops a completed span, the ring never outgrows its capacity,
  // and nothing accumulates in the tracer once the stream drains.
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  EXPECT_GE(tracer.ring_highwater(), 1u);
  EXPECT_LE(tracer.ring_highwater(), kStressRing);
  EXPECT_LE(tracer.retained_spans(), kStressRing);
  EXPECT_EQ(tracer.exported_spans(), sunk_spans);
  EXPECT_GT(sunk_spans, 0u);
  return result;
}

std::string train_blob() {
  StreamingService trainer(obs_stress_options(1));
  trainer.train_model(
      "default", sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
  return trainer.checkpoint_of("default");
}

TEST(StreamingObsDeterminismTest,
     MetricsSnapshotAndTraceStructureSurviveThreadsAndShuffles) {
  const std::string master_blob = train_blob();
  const auto requests = obs_stress_requests();

  const ObsRunResult reference = run_with_obs(master_blob, requests, 1);
  // The instrumented layers all reported: service admission, session
  // outcomes, per-step TD3 losses, Twin-Q probes.
  EXPECT_NE(reference.metrics_jsonl.find("stream.requests_admitted"),
            std::string::npos);
  EXPECT_NE(reference.metrics_jsonl.find("rl.critic1_loss"),
            std::string::npos);
  EXPECT_NE(reference.metrics_jsonl.find("twinq.optimizer_runs"),
            std::string::npos);
  // The scheduling-dependent gauge is excluded from the deterministic set.
  EXPECT_EQ(reference.metrics_jsonl.find("stream.queue_depth"),
            std::string::npos);
  EXPECT_NE(reference.trace_signature.find(">request"), std::string::npos);
  EXPECT_NE(reference.trace_signature.find("request>session"),
            std::string::npos);
  EXPECT_NE(reference.trace_signature.find("session>tune_online"),
            std::string::npos);
  // The deterministic TELE payload leads with the versioned header line
  // and carries the registry's deterministic instruments (including the
  // tracer's own health counters).
  EXPECT_EQ(reference.tele_payload.rfind("{\"tele\":1,\"deterministic\":true,",
                                         0),
            0u);
  EXPECT_NE(reference.tele_payload.find("\"version\":\"stress\""),
            std::string::npos);
  EXPECT_NE(reference.tele_payload.find("obs.spans.emitted"),
            std::string::npos);
  EXPECT_NE(reference.tele_payload.find("stream.rec_seconds"),
            std::string::npos);
  EXPECT_EQ(reference.tele_payload.find("obs.spans.ring_highwater"),
            std::string::npos);

  common::Rng shuffler(0xA11C0DE5ull);
  for (std::size_t shuffle = 0; shuffle < 3; ++shuffle) {
    auto order = requests;
    shuffler.shuffle(order);
    for (const std::size_t threads : {std::size_t{4}, std::size_t{16}}) {
      const std::string context = "shuffle " + std::to_string(shuffle) +
                                  ", threads " + std::to_string(threads);
      const ObsRunResult run = run_with_obs(master_blob, order, threads);
      EXPECT_EQ(run.metrics_jsonl, reference.metrics_jsonl)
          << context << ": deterministic metrics snapshot diverged";
      EXPECT_EQ(run.trace_signature, reference.trace_signature)
          << context << ": trace structure diverged";
      EXPECT_EQ(run.checkpoint, reference.checkpoint)
          << context << ": master checkpoint diverged";
      EXPECT_EQ(run.tele_payload, reference.tele_payload)
          << context << ": deterministic TELE payload diverged";
    }
  }
}

TEST(StreamingObsDeterminismTest, TracingDoesNotPerturbTheMasterCheckpoint) {
  // The whole point of the sink design: observability is read-only.
  // A run with full tracing + metrics must produce the same bit-exact
  // master state as a run with the inert sink.
  const std::string master_blob = train_blob();
  const auto requests = obs_stress_requests();

  std::string plain_checkpoint;
  {
    StreamingService svc(obs_stress_options(4));
    std::istringstream blob(master_blob, std::ios::binary);
    svc.load_model("default", blob);
    for (const auto& r : requests) svc.submit(r);
    while (svc.wait_completed()) {
    }
    (void)svc.flush();
    plain_checkpoint = svc.checkpoint_of("default");
  }
  const ObsRunResult traced = run_with_obs(master_blob, requests, 4);
  EXPECT_EQ(traced.checkpoint, plain_checkpoint);
}

TEST(StreamingObsDeterminismTest, SpanHealthCountersLandInNondeterministicTele) {
  // The tracer's back-pressure health (dropped spans, ring high-water)
  // is scheduling-dependent, so it ships only in the nondeterministic
  // TELE view — present there by name, absent from the byte-stable one.
  obs::LogicalClock clock;
  obs::MetricsRegistry registry;
  obs::TracerOptions tracer_options;
  tracer_options.health = &registry;
  obs::Tracer tracer(clock, tracer_options);
  StreamingOptions options = obs_stress_options(1);
  options.service.obs = {&registry, &tracer};
  StreamingService svc(options);
  svc.set_session_runner_for_test([](const TuningRequest& r) {
    SessionReport report;
    report.id = r.id;
    report.workload = r.workload;
    report.ok = true;
    return report;
  });
  TuningRequest request;
  request.id = "span-health";
  request.workload = "WC-D1";
  svc.submit(request);
  while (svc.wait_completed()) {
  }

  const obs::BuildInfo info{"stress", "pinned", false, 1};
  std::ostringstream full;
  write_telemetry_payload(full, svc.metrics(), info, &registry,
                          /*include_nondeterministic=*/true);
  const std::string all = std::move(full).str();
  EXPECT_NE(all.find("\"name\":\"obs.spans.dropped\""), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"obs.spans.ring_highwater\""),
            std::string::npos);
  EXPECT_NE(all.find("\"name\":\"obs.spans.emitted\""), std::string::npos);

  std::ostringstream stable;
  write_telemetry_payload(stable, svc.metrics(), info, &registry,
                          /*include_nondeterministic=*/false);
  const std::string deterministic = std::move(stable).str();
  EXPECT_EQ(deterministic.find("obs.spans.dropped"), std::string::npos);
  EXPECT_EQ(deterministic.find("obs.spans.ring_highwater"), std::string::npos);
  EXPECT_NE(deterministic.find("obs.spans.emitted"), std::string::npos);
}

TEST(StreamingObsTeleTest, FinalTeleCarriesBuildInfoAndStaysParseable) {
  StreamingOptions options;
  options.service.threads = 1;
  // Golden-style pin: TELE build fields must be exactly what the options
  // injected, not whatever host this test runs on.
  options.build_info = obs::BuildInfo{"1.2.3-test", "pinned", false, 9};
  ShardedStreamingService svc(options, 1);
  svc.set_session_runner_for_test([](const TuningRequest& r) {
    SessionReport report;
    report.id = r.id;
    report.workload = r.workload;
    report.ok = true;
    rl::Transition t;
    t.state = {1};
    t.action = {1};
    t.reward = 1;
    t.next_state = {1};
    report.new_transitions.push_back(t);
    return report;
  });

  const std::string input = encode_frames({
      {FrameType::kRequest, "{\"id\":\"a\",\"workload\":\"TS-D1\"}"},
      {FrameType::kEnd, ""},
  });
  std::istringstream in(input, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  (void)net::serve_stream(svc, in, out);

  const auto frames = decode_frames(std::move(out).str());
  ASSERT_GE(frames.size(), 2u);
  ASSERT_EQ(frames[frames.size() - 2].type, FrameType::kTelemetry);
  for (const auto& f : frames) EXPECT_NE(f.type, FrameType::kMetrics);
  // Line 1 of the final TELE is the aggregate object.
  const std::string& payload = frames[frames.size() - 2].payload;
  const std::string aggregate = payload.substr(0, payload.find('\n'));

  // parse_flat_json tolerates unknown keys ("tele", "deterministic"), so
  // the aggregate line parses and keeps every field the old METR frame
  // carried.
  const auto fields = parse_flat_json(aggregate);
  EXPECT_EQ(fields.at("aggregate"), "true");
  EXPECT_EQ(fields.at("sessions"), "1");
  EXPECT_EQ(fields.at("failed"), "0");
  // New aggregate fields.
  EXPECT_EQ(fields.at("merges"), "1");
  EXPECT_EQ(fields.at("merged_transitions"), "0");  // stub entry: no master
  EXPECT_EQ(fields.at("fine_tune_steps"), "0");
  // Build-info labels come from the pinned override.
  EXPECT_EQ(fields.at("version"), "1.2.3-test");
  EXPECT_EQ(fields.at("backend"), "pinned");
  EXPECT_EQ(fields.at("simd_compiled"), "false");
  EXPECT_EQ(fields.at("threads"), "9");
}

/// Serves `input` through one stdin-style front-end connection with a
/// fake runner, returning the front end's stats and output frames.
std::pair<net::FrontEndStats, std::vector<Frame>> serve_fake(
    const std::string& input, const net::FrontEndOptions& fe) {
  StreamingOptions options;
  options.service.threads = 1;
  options.build_info = obs::BuildInfo{"tele-test", "pinned", false, 1};
  ShardedStreamingService svc(options, 1);
  svc.set_session_runner_for_test([](const TuningRequest& r) {
    SessionReport report;
    report.id = r.id;
    report.workload = r.workload;
    report.ok = true;
    return report;
  });
  std::istringstream in(input, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  const net::FrontEndStats stats = net::serve_stream(svc, in, out, fe);
  return {stats, decode_frames(std::move(out).str())};
}

TEST(StreamingTeleTest, TeleFramesAtEveryProtocolPointAndOnPolls) {
  const std::string input = encode_frames({
      {FrameType::kStat, ""},
      {FrameType::kRequest, "{\"id\":\"a\",\"workload\":\"TS-D1\"}"},
      {FrameType::kFlush, ""},
      {FrameType::kRequest, "{\"id\":\"b\",\"workload\":\"PR-D1\"}"},
      {FrameType::kStat, "{\"probe\":1}"},
      {FrameType::kStat, "not json at all"},
      {FrameType::kEnd, ""},
  });
  net::FrontEndOptions fe;
  fe.tele_every = 1;  // one TELE after every REP too
  const auto [result, frames] = serve_fake(input, fe);

  EXPECT_EQ(result.clean_ends, 1u);
  EXPECT_EQ(result.requests, 2u);
  EXPECT_EQ(result.stat_polls, 2u);   // the malformed one does not count
  EXPECT_EQ(result.parse_errors, 1u);
  // TELE points: 2 polls + 1 FLSH + 2 per-REP + 1 before END.
  EXPECT_EQ(result.tele_frames, 6u);

  std::size_t tele = 0, err = 0;
  for (const auto& f : frames) {
    if (f.type == FrameType::kTelemetry) {
      ++tele;
      // Every TELE payload leads with the versioned header line and the
      // pinned build labels.
      EXPECT_EQ(f.payload.rfind("{\"tele\":1,\"deterministic\":false,", 0),
                0u);
      EXPECT_NE(f.payload.find("\"version\":\"tele-test\""),
                std::string::npos);
    } else if (f.type == FrameType::kError) {
      ++err;
      EXPECT_NE(f.payload.find("STAT"), std::string::npos);
    }
  }
  EXPECT_EQ(tele, result.tele_frames);
  EXPECT_EQ(err, 1u);
  // The final TELE directly precedes END.
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(frames[frames.size() - 2].type, FrameType::kTelemetry);

  // The deterministic variant says so and drops the scheduling-dependent
  // float aggregates; the tail is still TELE + END.
  fe.tele_every = 0;
  fe.tele_include_nondeterministic = false;
  const auto [stable_result, stable_frames] = serve_fake(input, fe);
  EXPECT_EQ(stable_result.clean_ends, 1u);
  ASSERT_GE(stable_frames.size(), 3u);
  const Frame& tail_tele = stable_frames[stable_frames.size() - 2];
  ASSERT_EQ(tail_tele.type, FrameType::kTelemetry);
  EXPECT_EQ(tail_tele.payload.rfind("{\"tele\":1,\"deterministic\":true,", 0),
            0u);
  EXPECT_EQ(tail_tele.payload.find("mean_speedup"), std::string::npos);
  EXPECT_NE(tail_tele.payload.find("\"sessions\":2"), std::string::npos);
}

TEST(StreamingTeleTest, VersionThreeClientIsServedWithTeleEndTail) {
  // Clients that still announce wire v3 are served; the reply stream is
  // v4-shaped, so it ends TELE + END with no METR.
  std::string input = encode_frames({
      {FrameType::kRequest, "{\"id\":\"a\",\"workload\":\"TS-D1\"}"},
      {FrameType::kEnd, ""},
  });
  input[4] = static_cast<char>(3);  // little-endian low byte of the version
  const auto [result, frames] = serve_fake(input, net::FrontEndOptions{});
  EXPECT_EQ(result.clean_ends, 1u);
  EXPECT_EQ(result.protocol_errors, 0u);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kReply);
  EXPECT_EQ(frames[1].type, FrameType::kTelemetry);
  EXPECT_EQ(frames[2].type, FrameType::kEnd);
}

}  // namespace
}  // namespace deepcat::service
