// Serving determinism under multiplexing: a connection's byte transcript
// is a pure function of ITS OWN request sequence — independent of shard
// count, worker thread count, and the order connections happen to arrive
// — and the post-drain model checkpoints are bit-identical across shard
// and thread counts (the canonical-order merge erases scheduling).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "service/checkpoint.hpp"
#include "service/sharding.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::net {
namespace {

using service::FrameType;
using service::TuningRequest;

constexpr std::size_t kModels = 8;
constexpr std::size_t kRequestsPerConn = 2;

std::string model_name(std::size_t i) {
  return "model-" + std::to_string(i);
}

std::string request_json(const std::string& id, const std::string& model,
                         std::uint64_t seed) {
  return "{\"id\":\"" + id + "\",\"workload\":\"TS-D1\",\"steps\":2,\"seed\":" +
         std::to_string(seed) + ",\"model\":\"" + model + "\"}";
}

/// Reads raw bytes until the server closes the connection — the strongest
/// form of transcript comparison (framing included).
std::string read_all_bytes(int fd) {
  std::string bytes;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
  return bytes;
}

std::string unique_socket_path(const std::string& tag) {
  return ::testing::TempDir() + "dcnd_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Deterministic arrival permutation: rotate-and-stride, seeded by the
/// shuffle index (no RNG so the orders are stable across runs).
std::vector<std::size_t> arrival_order(std::size_t count,
                                       std::size_t shuffle) {
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  if (shuffle == 1) {
    std::reverse(order.begin(), order.end());
  } else if (shuffle == 2) {
    std::vector<std::size_t> strided;
    for (std::size_t start = 0; start < 3; ++start) {
      for (std::size_t i = start; i < count; i += 3) strided.push_back(i);
    }
    order = strided;
  }
  return order;
}

service::SessionReport fake_report(const TuningRequest& r) {
  service::SessionReport report;
  report.id = r.id;
  report.workload = r.workload;
  report.cluster = r.cluster;
  report.ok = true;
  report.report.default_time = 100.0;
  report.report.best_time = 90.0 - static_cast<double>(r.seed % 7);
  return report;
}

/// Runs one front-end configuration and returns conn-key -> transcript
/// bytes. Connections are opened in `order`; all requests are written
/// before any reply is read, so completions genuinely interleave.
std::map<std::size_t, std::string> run_fake_config(
    std::size_t shards, std::size_t threads,
    const std::vector<std::size_t>& order, const std::string& tag) {
  service::StreamingOptions streaming;
  streaming.service.threads = threads;
  streaming.build_info = obs::BuildInfo{"golden", "pinned", false, 1};
  service::ShardedStreamingService svc(streaming, shards);
  svc.set_session_runner_for_test(fake_report);

  FrontEndOptions options;
  options.unix_path = unique_socket_path(tag);
  options.max_connections = 64;
  options.max_inflight = 256;
  options.tele_include_nondeterministic = false;
  FrontEnd front_end(svc, options);
  FrontEndStats stats;
  std::thread loop([&] { stats = front_end.run(); });

  std::map<std::size_t, std::unique_ptr<BlockingClient>> clients;
  for (const std::size_t key : order) {
    auto client = std::make_unique<BlockingClient>(
        BlockingClient::to_unix(options.unix_path));
    client->send_header();
    const std::string model = model_name(key % kModels);
    for (std::size_t r = 0; r < kRequestsPerConn; ++r) {
      client->send_frame(
          FrameType::kRequest,
          request_json("c" + std::to_string(key) + "-r" + std::to_string(r),
                       model, 100 + key * 10 + r));
    }
    client->send_frame(FrameType::kEnd, "");
    clients.emplace(key, std::move(client));
  }
  std::map<std::size_t, std::string> transcripts;
  for (auto& [key, client] : clients) {
    transcripts[key] = read_all_bytes(client->fd());
  }
  front_end.request_shutdown();
  loop.join();
  EXPECT_EQ(stats.replies, order.size() * kRequestsPerConn) << tag;
  EXPECT_EQ(stats.failed_sessions, 0u) << tag;
  EXPECT_EQ(stats.forced_closes, 0u) << tag;
  return transcripts;
}

TEST(NetDeterminismTest,
     TranscriptsAreBitIdenticalAcrossShardsThreadsAndArrival) {
  constexpr std::size_t kConns = 16;
  const auto baseline =
      run_fake_config(1, 1, arrival_order(kConns, 0), "base");
  ASSERT_EQ(baseline.size(), kConns);
  for (const auto& [key, transcript] : baseline) {
    EXPECT_FALSE(transcript.empty()) << "conn " << key;
  }

  std::size_t config = 0;
  for (const std::size_t shards : {1u, 4u}) {
    for (const std::size_t threads : {1u, 4u, 16u}) {
      for (std::size_t shuffle = 0; shuffle < 3; ++shuffle) {
        if (shards == 1 && threads == 1 && shuffle == 0) continue;
        const auto got =
            run_fake_config(shards, threads, arrival_order(kConns, shuffle),
                            "cfg" + std::to_string(config++));
        ASSERT_EQ(got.size(), kConns);
        for (const auto& [key, transcript] : baseline) {
          EXPECT_EQ(got.at(key), transcript)
              << "conn " << key << " transcript drifted at shards=" << shards
              << " threads=" << threads << " shuffle=" << shuffle;
        }
      }
    }
  }
}

/// One real-session configuration: serves 8 models (all initialized from
/// the same trained blob) over one connection per model, drains, and
/// returns each model's post-merge checkpoint bytes.
std::map<std::string, std::string> run_real_config(
    const std::string& blob, std::size_t shards, std::size_t threads,
    const std::vector<std::size_t>& order, const std::string& tag) {
  service::StreamingOptions streaming;
  streaming.service.threads = threads;
  streaming.service.api.tuner.seed = 7;
  streaming.service.api.tuner.td3.hidden = {24, 24};
  streaming.service.api.tuner.warmup_steps = 16;
  streaming.service.api.env.seed = 1007;
  streaming.max_loaded_models = kModels;
  service::ShardedStreamingService svc(streaming, shards);
  for (std::size_t i = 0; i < kModels; ++i) {
    std::istringstream in(blob, std::ios::binary);
    svc.load_model(model_name(i), in);
  }

  FrontEndOptions options;
  options.unix_path = unique_socket_path(tag);
  options.max_connections = 32;
  FrontEnd front_end(svc, options);
  std::thread loop([&] { (void)front_end.run(); });

  std::vector<std::unique_ptr<BlockingClient>> clients;
  for (const std::size_t key : order) {
    auto client = std::make_unique<BlockingClient>(
        BlockingClient::to_unix(options.unix_path));
    client->send_header();
    for (std::size_t r = 0; r < kRequestsPerConn; ++r) {
      client->send_frame(
          FrameType::kRequest,
          request_json("m" + std::to_string(key) + "-r" + std::to_string(r),
                       model_name(key), 500 + key * 10 + r));
    }
    client->send_frame(FrameType::kEnd, "");
    clients.push_back(std::move(client));
  }
  for (auto& client : clients) {
    std::size_t replies = 0;
    while (auto frame = client->read_frame()) {
      if (frame->type == FrameType::kReply) ++replies;
      EXPECT_NE(frame->type, FrameType::kError) << frame->payload;
      if (frame->type == FrameType::kEnd) break;
    }
    EXPECT_EQ(replies, kRequestsPerConn) << tag;
  }
  front_end.request_shutdown();
  loop.join();  // run() ends with the final flush_all(): merges are in

  std::map<std::string, std::string> checkpoints;
  for (std::size_t i = 0; i < kModels; ++i) {
    checkpoints[model_name(i)] = svc.checkpoint_of(model_name(i));
  }
  return checkpoints;
}

TEST(NetDeterminismTest, CheckpointsAreBitIdenticalAcrossShardsAndThreads) {
  // Train one master offline, then fan the SAME blob out under 8 model
  // names — every configuration must merge back to identical bits.
  service::StreamingOptions trainer_options;
  trainer_options.service.threads = 1;
  trainer_options.service.api.tuner.seed = 7;
  trainer_options.service.api.tuner.td3.hidden = {24, 24};
  trainer_options.service.api.tuner.warmup_steps = 16;
  trainer_options.service.api.env.seed = 1007;
  service::StreamingService trainer(trainer_options);
  trainer.train_model(
      "seed", sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2),
      40);
  const std::string blob = trainer.checkpoint_of("seed");

  const auto baseline =
      run_real_config(blob, 1, 1, arrival_order(kModels, 0), "rbase");
  ASSERT_EQ(baseline.size(), kModels);
  for (const auto& [name, bytes] : baseline) {
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_NE(bytes, blob) << name << ": the merge must have changed it";
  }

  std::size_t config = 0;
  for (const std::size_t shards : {4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      const std::size_t shuffle = 1 + config % 2;
      const std::string tag = "rcfg" + std::to_string(config++);
      const auto got = run_real_config(blob, shards, threads,
                                       arrival_order(kModels, shuffle), tag);
      for (const auto& [name, bytes] : baseline) {
        EXPECT_EQ(got.at(name) == bytes, true)
            << name << " checkpoint drifted at shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace deepcat::net
