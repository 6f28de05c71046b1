// Golden-transcript tests for the `deepcat serve --stream` engine: the
// front end's output for a checked-in input conversation, served as one
// stdin-style connection (net::serve_stream), must be byte-exact against
// the committed .golden files in tests/service/golden/.
//
// The happy path runs through the injectable SessionRunner seam with
// integer-valued reports, so its bytes are independent of the SIMD
// backend and libm; the error-path transcripts (unknown model, malformed
// frame, mid-stream EOF) drive the REAL service — those paths never
// evaluate a float, so they are byte-stable everywhere.
//
// Regeneration (after an intentional protocol or payload change):
//
//   DEEPCAT_UPDATE_GOLDEN=1 ./build/tests/service_test \
//       --gtest_filter='GoldenTranscriptTest.*'
//
// then commit the rewritten tests/service/golden/*.golden files. See
// tests/README.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "net/server.hpp"
#include "obs/timeseries.hpp"
#include "retrieval/index.hpp"
#include "service/sharding.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(DEEPCAT_GOLDEN_DIR) + "/" + name;
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("DEEPCAT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    out.write(actual.data(), static_cast<std::streamsize>(actual.size()));
    GTEST_LOG_(INFO) << "updated golden file " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with DEEPCAT_UPDATE_GOLDEN=1 (see "
                     "tests/README.md)";
  std::ostringstream buf(std::ios::binary);
  buf << in.rdbuf();
  const std::string expected = std::move(buf).str();
  if (expected == actual) return;
  std::size_t first_diff = 0;
  while (first_diff < expected.size() && first_diff < actual.size() &&
         expected[first_diff] == actual[first_diff]) {
    ++first_diff;
  }
  FAIL() << "transcript " << name << " diverged from its golden file: "
         << "expected " << expected.size() << " bytes, got " << actual.size()
         << ", first difference at offset " << first_diff
         << ". If the change is intentional, regenerate with "
            "DEEPCAT_UPDATE_GOLDEN=1 and commit the new golden file.";
}

/// Deterministic integer-valued session: bytes depend only on the request,
/// never on model float math or the SIMD backend.
SessionReport fake_session(const TuningRequest& r) {
  SessionReport report;
  report.id = r.id;
  report.workload = r.workload;
  report.cluster = r.cluster;
  report.ok = true;
  report.report.default_time = 128;
  report.report.best_time = 64;
  for (int s = 1; s <= r.max_steps; ++s) {
    tuners::TuningStepRecord step;
    step.step = s;
    step.exec_seconds = 64;
    step.reward = 1;
    step.success = true;
    step.recommendation_seconds = 2;
    step.best_so_far = 64;
    report.report.steps.push_back(step);
  }
  rl::Transition t;
  t.state = {1, 2};
  t.action = {3};
  t.reward = 1;
  t.next_state = {2, 3};
  report.new_transitions.push_back(t);
  // Warm requests: the REP's integer "warm" field mirrors how many seed
  // actions the resolved request carried (zero for cold requests, which
  // keeps the pre-warm golden transcripts byte-identical).
  report.warm_seeds = static_cast<int>(
      std::min(r.warm_actions.size(), static_cast<std::size_t>(r.max_steps)));
  // Streaming ids get an integer-valued re-adaptation summary so the REP's
  // stream keys (objective/phases/.../recovery_evals) are golden-pinned
  // without a float entering the transcript.
  if (r.workload.rfind("SA-", 0) == 0 || r.workload.rfind("SJ-", 0) == 0) {
    report.report.objective = sparksim::ObjectiveKind::kBatchLatencyP95;
    sparksim::StreamSummary stream;
    stream.phases = 3;
    stream.windows = r.max_steps + 1;  // reset window + one per step
    stream.final_p95_s = 4;
    sparksim::ShiftRecord recovered;
    recovered.at_eval = 2;
    recovered.recovery_evals = 2;
    recovered.pre_shift_best = 1;
    recovered.post_shift_best = 1;
    recovered.recovered = true;
    stream.shifts.push_back(recovered);
    stream.shifts.push_back({});  // still unrecovered: serializes as "-"
    report.report.stream = std::move(stream);
  }
  return report;
}

/// Tiny deterministic index: one entry per workload family with a pure
/// embed_query embedding. Retrieval over it never emits a float into the
/// transcript (the REP only carries the integer seed count).
std::shared_ptr<const retrieval::ExperienceIndex> fake_index() {
  auto index = std::make_shared<retrieval::ExperienceIndex>();
  const struct {
    sparksim::WorkloadType type;
    double input_mb;
    const char* id;
  } cases[] = {
      {sparksim::WorkloadType::kWordCount, 320.0, "WC-D1"},
      {sparksim::WorkloadType::kTeraSort, 3200.0, "TS-D1"},
      {sparksim::WorkloadType::kPageRank, 1000.0, "PR-D1"},
      {sparksim::WorkloadType::kKMeans, 640.0, "KM-D1"},
  };
  std::uint64_t seed = 1;
  for (const auto& c : cases) {
    retrieval::ExperienceEntry e;
    e.workload = c.id;
    e.seed = seed++;
    e.best_cost = 64;
    e.default_cost = 128;
    e.best_action.fill(0.5);
    e.embedding = retrieval::embed_query(c.type, c.input_mb);
    index->add(std::move(e));
  }
  return index;
}

std::string serve(const std::string& input, bool with_fake_runner,
                  bool with_warm_index = false,
                  obs::TimeSeriesRegistry* series = nullptr) {
  StreamingOptions options;
  options.service.threads = 1;
  // The TELE frames carry build-info labels; pin them so the transcript
  // bytes stay identical across numeric backends and host core counts.
  options.build_info = obs::BuildInfo{"golden", "pinned", false, 1};
  options.service.obs.series = series;
  ShardedStreamingService svc(options, 1);
  if (with_fake_runner) svc.set_session_runner_for_test(fake_session);
  if (with_warm_index) svc.set_warm_index(fake_index());
  std::istringstream in(input, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  (void)net::serve_stream(svc, in, out);
  return std::move(out).str();
}

TEST(GoldenTranscriptTest, HappyPathWithFlush) {
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":11}"},
      {FrameType::kRequest,
       "{\"id\":\"b\",\"workload\":\"PR-D2\",\"cluster\":\"b\","
       "\"steps\":2,\"seed\":12,\"model\":\"default\"}"},
      {FrameType::kFlush, ""},
      {FrameType::kRequest,
       "{\"id\":\"c\",\"workload\":\"KM-D3\",\"steps\":3,\"seed\":13}"},
      {FrameType::kEnd, ""},
  });
  check_golden("happy_path.golden", serve(input, /*with_fake_runner=*/true));
}

TEST(GoldenTranscriptTest, UnknownModelYieldsFailedReport) {
  // Real service, no registry: admission fails synchronously with a typed
  // report. No session runs, so no float ever enters the transcript.
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"lost\",\"workload\":\"TS-D1\",\"model\":\"ghost\"}"},
      {FrameType::kEnd, ""},
  });
  check_golden("unknown_model.golden", serve(input, /*with_fake_runner=*/false));
}

TEST(GoldenTranscriptTest, MalformedFrameAbandonsStream) {
  std::string input = encode_frames({
      {FrameType::kRequest, "{\"id\":\"x\",\"workload\":\"TS-D1\"}"},
      {FrameType::kEnd, ""},
  });
  input[input.size() - 1] ^= 0x40;  // corrupt the END frame's CRC
  // The REQ still parses (it precedes the corruption) but its model is
  // unserved in a registry-less service, so the transcript is float-free.
  check_golden("malformed_frame.golden",
               serve(input, /*with_fake_runner=*/false));
}

TEST(GoldenTranscriptTest, StatPollsAndTelemetryBoundaries) {
  // Exercises every TELE emission point in one conversation: an early
  // STAT poll (pre-work), a FLSH boundary, mid-stream STAT polls at the
  // post-flush quiescent point (so the snapshot bytes cannot race an
  // in-flight session), a malformed STAT payload (ERR, no TELE) and the
  // final before-END telemetry. Single-threaded fake runner.
  const std::string input = encode_frames({
      {FrameType::kStat, ""},
      {FrameType::kRequest,
       "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":11}"},
      {FrameType::kFlush, ""},
      {FrameType::kStat, "{\"want\":\"tele\"}"},
      {FrameType::kStat, "this is not json"},
      {FrameType::kRequest,
       "{\"id\":\"b\",\"workload\":\"PR-D2\",\"cluster\":\"b\","
       "\"steps\":2,\"seed\":12}"},
      {FrameType::kEnd, ""},
  });
  check_golden("stat_tele.golden", serve(input, /*with_fake_runner=*/true));
}

TEST(GoldenTranscriptTest, WarmHappyPathSeedsFromIndex) {
  // A warm REQ against a loaded index: the fake runner reports the number
  // of resolved seed actions, so the REP carries an integer "warm" field
  // while the cold REQ in the same conversation stays byte-identical to
  // the pre-warm wire format.
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"w1\",\"workload\":\"TS-D2\",\"steps\":3,\"seed\":21,"
       "\"warm\":2}"},
      {FrameType::kRequest,
       "{\"id\":\"cold\",\"workload\":\"TS-D2\",\"steps\":1,\"seed\":22}"},
      {FrameType::kRequest,
       "{\"id\":\"w2\",\"workload\":\"KM-D1\",\"cluster\":\"b\","
       "\"steps\":1,\"seed\":23,\"warm\":3}"},
      {FrameType::kEnd, ""},
  });
  check_golden("warm_happy_path.golden",
               serve(input, /*with_fake_runner=*/true,
                     /*with_warm_index=*/true));
}

TEST(GoldenTranscriptTest, WarmWithoutIndexIsATypedError) {
  // The same warm REQ without --warm-index: the serve driver prechecks
  // warm_error() and emits a typed ERR frame (counted as a parse error),
  // never a failed session — the cold REQ after it still serves.
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"w1\",\"workload\":\"TS-D2\",\"steps\":1,\"seed\":21,"
       "\"warm\":2}"},
      {FrameType::kRequest,
       "{\"id\":\"cold\",\"workload\":\"TS-D2\",\"steps\":1,\"seed\":22}"},
      {FrameType::kEnd, ""},
  });
  check_golden("warm_no_index.golden",
               serve(input, /*with_fake_runner=*/true,
                     /*with_warm_index=*/false));
}

TEST(GoldenTranscriptTest, MalformedWarmPayloadIsAParseError) {
  // Negative and non-numeric "warm" counts are malformed payloads: typed
  // ERR frames naming the field, stream continues.
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"neg\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":31,"
       "\"warm\":-1}"},
      {FrameType::kRequest,
       "{\"id\":\"nan\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":32,"
       "\"warm\":\"many\"}"},
      {FrameType::kRequest,
       "{\"id\":\"ok\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":33,"
       "\"warm\":1}"},
      {FrameType::kEnd, ""},
  });
  check_golden("warm_malformed.golden",
               serve(input, /*with_fake_runner=*/true,
                     /*with_warm_index=*/true));
}

TEST(GoldenTranscriptTest, ScopedHappyPathCarriesScopeAndStreamKeys) {
  // Scope-keyed sessions beside a global one: the scoped REPs carry the
  // "scope" key, the streaming REQ carries the full re-adaptation block,
  // and the global batch REQ stays byte-identical to the legacy format.
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"s1\",\"workload\":\"SA-P1\",\"steps\":2,\"seed\":41,"
       "\"scope\":\"workload\"}"},
      {FrameType::kRequest,
       "{\"id\":\"s2\",\"workload\":\"TS-D1\",\"cluster\":\"b\","
       "\"steps\":1,\"seed\":42,\"scope\":\"hardware\"}"},
      {FrameType::kRequest,
       "{\"id\":\"s3\",\"workload\":\"SJ-P2\",\"steps\":1,\"seed\":43}"},
      {FrameType::kEnd, ""},
  });
  check_golden("scoped_happy_path.golden",
               serve(input, /*with_fake_runner=*/true));
}

TEST(GoldenTranscriptTest, UnknownScopeIsAParseError) {
  // A malformed "scope" is a typed ERR frame (the "warm" precedent): the
  // stream continues and the well-scoped REQ after it still serves.
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"bad\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":51,"
       "\"scope\":\"regional\"}"},
      {FrameType::kRequest,
       "{\"id\":\"ok\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":52,"
       "\"scope\":\"workload\"}"},
      {FrameType::kEnd, ""},
  });
  check_golden("scope_malformed.golden",
               serve(input, /*with_fake_runner=*/true));
}

TEST(GoldenTranscriptTest, TracedHappyPathEchoesTraceAndServerSpan) {
  // Traced REQs beside an untraced one: the traced REPs echo the client's
  // trace id plus the deterministic server span id (an FNV hash of trace
  // id + request id, so the bytes are stable without a tracer attached),
  // and the untraced REP stays byte-identical to the legacy format.
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"t1\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":61,"
       "\"trace\":\"req-abc\",\"span\":42}"},
      {FrameType::kRequest,
       "{\"id\":\"plain\",\"workload\":\"WC-D1\",\"steps\":1,\"seed\":62}"},
      {FrameType::kRequest,
       "{\"id\":\"t2\",\"workload\":\"KM-D1\",\"cluster\":\"b\","
       "\"steps\":2,\"seed\":63,\"trace\":\"req-abc\"}"},
      {FrameType::kEnd, ""},
  });
  check_golden("traced_happy_path.golden",
               serve(input, /*with_fake_runner=*/true));
}

TEST(GoldenTranscriptTest, MalformedTraceContextIsAParseError) {
  // The "warm"/"scope" precedent applied to trace context: an empty trace
  // id, a span without a trace, and a non-numeric span are typed ERR
  // frames naming the field; the stream continues and the well-traced REQ
  // after them still serves.
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"empty\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":71,"
       "\"trace\":\"\"}"},
      {FrameType::kRequest,
       "{\"id\":\"orphan\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":72,"
       "\"span\":7}"},
      {FrameType::kRequest,
       "{\"id\":\"nan\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":73,"
       "\"trace\":\"t\",\"span\":\"lots\"}"},
      {FrameType::kRequest,
       "{\"id\":\"ok\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":74,"
       "\"trace\":\"t\",\"span\":7}"},
      {FrameType::kEnd, ""},
  });
  check_golden("trace_malformed.golden",
               serve(input, /*with_fake_runner=*/true));
}

TEST(GoldenTranscriptTest, TimeSeriesFrameAtStatAndTail) {
  // With a TimeSeriesRegistry attached the serve loop emits a TSER frame
  // right before each TELE (the STAT answer and the tail). Fake-runner
  // sessions record integer-valued series, so the frame is byte-stable;
  // without a registry the transcripts above stay TSER-free (wire v2
  // shape) — that is pinned by every other golden in this file.
  obs::TimeSeriesRegistry series(8);
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":2,\"seed\":81}"},
      {FrameType::kFlush, ""},
      {FrameType::kStat, ""},
      {FrameType::kRequest,
       "{\"id\":\"b\",\"workload\":\"PR-D2\",\"steps\":1,\"seed\":82}"},
      {FrameType::kEnd, ""},
  });
  check_golden("timeseries_tail.golden",
               serve(input, /*with_fake_runner=*/true,
                     /*with_warm_index=*/false, &series));
}

TEST(GoldenTranscriptTest, MidStreamEofIsAProtocolError) {
  std::string input = encode_frames({
      {FrameType::kRequest, "{\"id\":\"y\",\"workload\":\"WC-D1\"}"},
      {FrameType::kEnd, ""},
  });
  // Drop the END frame entirely: EOF lands at a frame boundary, which the
  // serve driver must still report — only an explicit END is a clean end.
  input.resize(input.size() - 16);
  check_golden("midstream_eof.golden", serve(input, /*with_fake_runner=*/false));
}

TEST(GoldenTranscriptTest, GoldenTranscriptsDecodeAsValidWireStreams) {
  // Meta-check: every committed golden transcript is itself a well-formed
  // DCWP stream ending in TELE + END (the fuzz invariant,
  // applied to our own outputs).
  for (const char* name : {"happy_path.golden", "unknown_model.golden",
                           "malformed_frame.golden", "midstream_eof.golden",
                           "stat_tele.golden", "warm_happy_path.golden",
                           "warm_no_index.golden", "warm_malformed.golden",
                           "scoped_happy_path.golden",
                           "scope_malformed.golden",
                           "traced_happy_path.golden",
                           "trace_malformed.golden",
                           "timeseries_tail.golden"}) {
    std::ifstream in(golden_path(name), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << name
                    << " — regenerate with DEEPCAT_UPDATE_GOLDEN=1";
    std::ostringstream buf(std::ios::binary);
    buf << in.rdbuf();
    const auto frames = decode_frames(std::move(buf).str());
    ASSERT_GE(frames.size(), 2u) << name;
    EXPECT_EQ(frames[frames.size() - 1].type, FrameType::kEnd) << name;
    EXPECT_EQ(frames[frames.size() - 2].type, FrameType::kTelemetry) << name;
    EXPECT_EQ(frames[frames.size() - 2].payload.rfind("{\"tele\":1,", 0), 0u)
        << name;
  }
}

}  // namespace
}  // namespace deepcat::service
