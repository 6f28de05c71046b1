// Fuzz-style corruption suites over both length-prefixed containers: the
// DCWP wire protocol and the DCKP checkpoint. A seeded mutation engine
// (tests/fuzz/wire_mutator.hpp) truncates at every byte boundary, flips
// every bit, and splices CRC-valid ranges over each other; a reader passes
// iff every mutant either decodes cleanly or raises its typed error
// (WireError / CheckpointError) — no crash, no std::bad_alloc from a
// hostile length field, no foreign exception, no silent mis-accept.
//
// The combined in-tree corpus exceeds 10'000 mutants; the standalone
// deepcat_fuzz_wire target runs the same engine open-ended.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fuzz/wire_mutator.hpp"
#include "net/server.hpp"
#include "retrieval/index.hpp"
#include "service/checkpoint.hpp"
#include "service/sharding.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

constexpr std::uint64_t kCorpusSeed = 0xD33BCA70ull;

std::string wire_base_stream() {
  return encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"req-0\",\"workload\":\"TS-D1\",\"cluster\":\"a\","
       "\"steps\":3,\"seed\":11,\"model\":\"default\"}"},
      {FrameType::kStat, ""},
      {FrameType::kRequest,
       "{\"id\":\"req-1\",\"workload\":\"PR-D2\",\"cluster\":\"b\","
       "\"steps\":2,\"seed\":12,\"model\":\"graph\"}"},
      {FrameType::kFlush, ""},
      {FrameType::kTelemetry,
       "{\"tele\":1,\"deterministic\":false,\"aggregate\":true,"
       "\"sessions\":2}\n{\"name\":\"stream.flushes\",\"kind\":\"counter\","
       "\"deterministic\":true,\"value\":1}"},
      {FrameType::kRequest,
       "{\"id\":\"req-2\",\"workload\":\"KM-D3\",\"steps\":1,\"seed\":13}"},
      {FrameType::kRequest,
       "{\"id\":\"req-3\",\"workload\":\"WC-D2\",\"steps\":2,\"seed\":14,"
       "\"warm\":2,\"model\":\"default\"}"},
      {FrameType::kRequest,
       "{\"id\":\"req-4\",\"workload\":\"SA-P1\",\"steps\":2,\"seed\":15,"
       "\"scope\":\"workload\"}"},
      {FrameType::kRequest,
       "{\"id\":\"req-5\",\"workload\":\"TS-D1\",\"cluster\":\"b\","
       "\"steps\":1,\"seed\":16,\"scope\":\"hardware\"}"},
      {FrameType::kRequest,
       "{\"id\":\"req-6\",\"workload\":\"WC-D1\",\"steps\":1,\"seed\":17,"
       "\"trace\":\"fuzz-trace\",\"span\":42}"},
      {FrameType::kStat, "{\"want\":\"tele\"}"},
      {FrameType::kMetrics, "{\"aggregate\":true,\"sessions\":3}"},
      {FrameType::kEnd, ""},
  });
}

TEST(WireFuzzTest, MutatedStreamsNeverEscapeTypedErrors) {
  const std::string base = wire_base_stream();
  ASSERT_TRUE(decode_frames(base).size() == 13u) << "base stream must decode";

  const std::size_t exhaustive = fuzz::exhaustive_mutants(base);
  const std::size_t total = exhaustive + 3000;  // + seeded splices
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < total; ++i) {
    std::string desc;
    const std::string mutant = fuzz::make_mutant(base, kCorpusSeed, i, &desc);
    try {
      (void)decode_frames(mutant);
      ++accepted;
      if (i < base.size()) {
        FAIL() << "truncated stream accepted: " << desc;
      }
      // An accepted bit flip must be in the version field (a lower version
      // is legal input); anywhere else would be a CRC/framing mis-accept.
      if (i < exhaustive) {
        EXPECT_TRUE(fuzz::is_bit_flip_in(base, i, 4, 8))
            << "corrupt stream accepted: " << desc;
      }
    } catch (const WireError& e) {
      ++rejected;
      EXPECT_FALSE(std::string(e.what()).empty()) << desc;
    } catch (const std::exception& e) {
      FAIL() << desc << " escaped with non-wire error: " << e.what();
    }
  }
  EXPECT_EQ(rejected + accepted, total);
  EXPECT_GT(rejected, total / 2) << "mutation engine is not corrupting";
}

TEST(WireFuzzTest, TypedErrorsNameTheOffendingFrame) {
  const std::string base = wire_base_stream();
  // Every truncation error names a frame type or the header/END contract.
  for (std::size_t cut = 8; cut < base.size(); ++cut) {
    try {
      (void)decode_frames(base.substr(0, cut));
      FAIL() << "truncation at " << cut << " accepted";
    } catch (const WireError& e) {
      const std::string msg = e.what();
      const bool named = msg.find("REQ") != std::string::npos ||
                         msg.find("FLSH") != std::string::npos ||
                         msg.find("METR") != std::string::npos ||
                         msg.find("TELE") != std::string::npos ||
                         msg.find("STAT") != std::string::npos ||
                         msg.find("END") != std::string::npos ||
                         msg.find("header") != std::string::npos ||
                         msg.find("frame") != std::string::npos;
      EXPECT_TRUE(named) << "unnamed error at cut " << cut << ": " << msg;
    }
  }
}

TEST(WireFuzzTest, ServeDriverSurvivesMutatedStreams) {
  // The front end in front of the decoder must also hold the line: any
  // mutated input yields a well-formed output stream that still terminates
  // with METR + END, never an escaped exception.
  const std::string base = wire_base_stream();
  for (std::size_t i = 0; i < 1500; ++i) {
    std::string desc;
    const std::string mutant =
        fuzz::make_mutant(base, kCorpusSeed + 1, i * 7 + 3, &desc);

    ShardedStreamingService svc(StreamingOptions{}, 1);
    svc.set_session_runner_for_test([](const TuningRequest& r) {
      SessionReport report;
      report.id = r.id;
      report.workload = r.workload;
      report.cluster = r.cluster;
      report.ok = true;
      return report;
    });
    std::istringstream in(mutant, std::ios::binary);
    std::ostringstream out(std::ios::binary);
    const net::FrontEndStats result = net::serve_stream(svc, in, out);

    const auto frames = decode_frames(out.str());
    ASSERT_GE(frames.size(), 3u) << desc;
    EXPECT_EQ(frames[frames.size() - 1].type, FrameType::kEnd) << desc;
    EXPECT_EQ(frames[frames.size() - 2].type, FrameType::kMetrics) << desc;
    EXPECT_EQ(frames[frames.size() - 3].type, FrameType::kTelemetry) << desc;
    EXPECT_EQ(frames[frames.size() - 3].payload.rfind("{\"tele\":1,", 0), 0u)
        << desc;
    if (result.clean_ends == 0) {
      EXPECT_GT(result.protocol_errors + result.parse_errors, 0u) << desc;
    }
  }
}

TEST(IndexFuzzTest, MutatedIndexContainersNeverEscapeTypedErrors) {
  // The standalone DCKP index container `deepcat serve --warm-index`
  // loads at startup: every truncation, bit flip and splice must either
  // decode cleanly or raise CheckpointError — the server must not be
  // crashable by a corrupt index file on disk.
  retrieval::ExperienceIndex index;
  for (std::uint64_t s = 0; s < 4; ++s) {
    retrieval::ExperienceEntry e;
    e.workload = "TS-D" + std::to_string(s % 3 + 1);
    e.seed = s;
    e.best_cost = 60.0 + static_cast<double>(s);
    e.default_cost = 120.0;
    e.best_action.fill(0.25 * static_cast<double>(s % 4));
    e.embedding = retrieval::embed_query(
        sparksim::WorkloadType::kTeraSort, 3200.0);
    index.add(std::move(e));
  }
  std::ostringstream os(std::ios::binary);
  save_index(os, index);
  const std::string base = os.str();
  {
    std::istringstream in(base, std::ios::binary);
    ASSERT_EQ(load_index(in), index) << "base container must load";
  }

  const std::size_t exhaustive = fuzz::exhaustive_mutants(base);
  const std::size_t total = exhaustive + 2000;  // + seeded splices
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < total; ++i) {
    std::string desc;
    const std::string mutant = fuzz::make_mutant(base, kCorpusSeed, i, &desc);
    try {
      std::istringstream in(mutant, std::ios::binary);
      (void)load_index(in);
      if (i < base.size()) {
        FAIL() << "truncated index accepted: " << desc;
      }
      if (i < exhaustive) {
        EXPECT_TRUE(fuzz::is_bit_flip_in(base, i, 4, 8))
            << "corrupt index accepted: " << desc;
      }
    } catch (const CheckpointError& e) {
      ++rejected;
      EXPECT_FALSE(std::string(e.what()).empty()) << desc;
    } catch (const std::exception& e) {
      FAIL() << desc << " escaped with non-checkpoint error: " << e.what();
    }
  }
  EXPECT_GT(rejected, total / 2) << "mutation engine is not corrupting";
}

TEST(CheckpointFuzzTest, MutatedCheckpointsNeverEscapeTypedErrors) {
  core::DeepCatApiOptions api;
  api.tuner.seed = 5;
  api.tuner.td3.hidden = {8, 8};
  api.tuner.warmup_steps = 8;
  api.tuner.replay_capacity_per_pool = 64;
  core::DeepCat model(sparksim::cluster_a(), api);
  (void)model.train_offline(
      sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2), 20);
  const std::string base = checkpoint_to_string(model);

  core::DeepCat target(sparksim::cluster_a(), api);
  checkpoint_from_string(base, target);  // base blob must load

  // The blob is too large for the exhaustive prefix, so sample the mutant
  // index space with a seeded stride: truncations, bit flips and splices
  // all appear (make_mutant's layout), ~6000 mutants total.
  common::Rng picker(kCorpusSeed);
  const std::size_t exhaustive = fuzz::exhaustive_mutants(base);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 6000; ++i) {
    // 1/3 truncations, 1/2 bit flips, rest splices.
    std::size_t index;
    if (i % 6 < 2) {
      index = picker.index(base.size());
    } else if (i % 6 < 5) {
      index = base.size() + picker.index(base.size() * 8);
    } else {
      index = exhaustive + picker.index(1u << 16);
    }
    std::string desc;
    const std::string mutant = fuzz::make_mutant(base, kCorpusSeed, index, &desc);
    try {
      checkpoint_from_string(mutant, target);
      if (index < base.size()) {
        FAIL() << "truncated checkpoint accepted: " << desc;
      }
      if (index < exhaustive) {
        EXPECT_TRUE(fuzz::is_bit_flip_in(base, index, 4, 8))
            << "corrupt checkpoint accepted: " << desc;
      }
    } catch (const CheckpointError& e) {
      ++rejected;
      EXPECT_FALSE(std::string(e.what()).empty()) << desc;
    } catch (const std::exception& e) {
      FAIL() << desc << " escaped with non-checkpoint error: " << e.what();
    }
  }
  EXPECT_GT(rejected, 3000u) << "mutation engine is not corrupting";
  // The reusable target must still accept a pristine blob after thousands
  // of failed loads (failed loads never leave it unloadable).
  checkpoint_from_string(base, target);
}

}  // namespace
}  // namespace deepcat::service
