// FrontEnd behavior over real sockets: round trips on both transports,
// admission-order reply release, typed (never silent) overload rejection
// at both caps, wire-robustness isolation (oversized frames and midstream
// disconnects kill only their own connection), the deferred FLSH barrier,
// graceful drain, idle/drain timeouts, and a 256-connection fan-in with
// zero silent drops.
//
// All tests use the deterministic fake session runner: FrontEnd semantics
// do not depend on model float math, and the fake keeps the suite fast.
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "service/sharding.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"

namespace deepcat::net {
namespace {

using service::Frame;
using service::FrameType;
using service::StreamReport;
using service::TuningRequest;

service::StreamingOptions fake_options(std::size_t threads) {
  service::StreamingOptions o;
  o.service.threads = threads;
  o.build_info = obs::BuildInfo{"golden", "pinned", false, 1};
  return o;
}

service::SessionReport fake_report(const TuningRequest& r) {
  service::SessionReport report;
  report.id = r.id;
  report.workload = r.workload;
  report.cluster = r.cluster;
  report.ok = true;
  report.report.default_time = 100.0;
  report.report.best_time = 80.0;
  return report;
}

/// Holds fake sessions hostage until the test releases them.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<std::size_t> entered{0};

  void release() {
    {
      std::scoped_lock lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void wait_inside() {
    ++entered;
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return open; });
  }
  void wait_entered(std::size_t n) {
    while (entered.load() < n) std::this_thread::yield();
  }
};

std::string request_json(const std::string& id) {
  return "{\"id\":\"" + id + "\",\"workload\":\"TS-D1\",\"steps\":2}";
}

std::vector<Frame> read_until_end(BlockingClient& client) {
  std::vector<Frame> frames;
  while (auto frame = client.read_frame()) {
    const bool end = frame->type == FrameType::kEnd;
    frames.push_back(*std::move(frame));
    if (end) break;
  }
  return frames;
}

std::size_t count_type(const std::vector<Frame>& frames, FrameType type) {
  std::size_t n = 0;
  for (const auto& f : frames) n += f.type == type ? 1 : 0;
  return n;
}

std::string unique_socket_path(const std::string& tag) {
  return ::testing::TempDir() + "dcfe_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Runs a FrontEnd on its own thread; the test thread plays the clients.
class TestServer {
 public:
  TestServer(service::ShardedStreamingService& svc, FrontEndOptions options)
      : front_end_(svc, std::move(options)),
        thread_([this] { stats_ = front_end_.run(); }) {}

  ~TestServer() { join(); }

  FrontEnd& front_end() { return front_end_; }
  [[nodiscard]] std::uint16_t tcp_port() const noexcept {
    return front_end_.tcp_port();
  }

  /// Requests shutdown (if still running) and returns the final stats.
  const FrontEndStats& finish() {
    front_end_.request_shutdown();
    join();
    return stats_;
  }

 private:
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  FrontEnd front_end_;
  FrontEndStats stats_;
  std::thread thread_;
};

TEST(FrontEndTest, UnixAndTcpRoundTripWithStatPoll) {
  service::ShardedStreamingService svc(fake_options(2), 2);
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("roundtrip");
  options.tcp_port = 0;
  TestServer server(svc, options);

  auto unix_client = BlockingClient::to_unix(options.unix_path);
  unix_client.send_header();
  unix_client.send_frame(FrameType::kRequest, request_json("u-0"));
  unix_client.send_frame(FrameType::kRequest, request_json("u-1"));
  unix_client.send_frame(FrameType::kStat, "");
  unix_client.send_frame(FrameType::kRequest, request_json("u-2"));
  unix_client.send_frame(FrameType::kEnd, "");
  const auto unix_frames = read_until_end(unix_client);

  ASSERT_GT(server.tcp_port(), 0);
  auto tcp_client = BlockingClient::to_tcp("127.0.0.1", server.tcp_port());
  tcp_client.send_header();
  tcp_client.send_frame(FrameType::kRequest, request_json("t-0"));
  tcp_client.send_frame(FrameType::kEnd, "");
  const auto tcp_frames = read_until_end(tcp_client);

  const auto& stats = server.finish();

  // Unix transcript: replies in admission order, then TELE (+METR) + END.
  std::vector<std::string> reply_ids;
  for (const auto& f : unix_frames) {
    if (f.type == FrameType::kReply) {
      for (const char* id : {"u-0", "u-1", "u-2"}) {
        if (f.payload.find("\"id\":\"" + std::string(id) + "\"") !=
            std::string::npos) {
          reply_ids.emplace_back(id);
        }
      }
    }
  }
  EXPECT_EQ(reply_ids, (std::vector<std::string>{"u-0", "u-1", "u-2"}));
  // STAT answers with the global TELE; the END tail adds the
  // connection-scoped TELE.
  EXPECT_EQ(count_type(unix_frames, FrameType::kTelemetry), 2u);
  EXPECT_EQ(count_type(unix_frames, FrameType::kMetrics), 1u);
  EXPECT_EQ(unix_frames.back().type, FrameType::kEnd);
  EXPECT_EQ(count_type(unix_frames, FrameType::kError), 0u);

  EXPECT_EQ(count_type(tcp_frames, FrameType::kReply), 1u);
  EXPECT_EQ(tcp_frames.back().type, FrameType::kEnd);

  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.replies, 4u);
  EXPECT_EQ(stats.clean_ends, 2u);
  EXPECT_EQ(stats.failed_sessions, 0u);
  EXPECT_EQ(stats.stat_polls, 1u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.forced_closes, 0u);
}

TEST(FrontEndTest, RepliesAreReleasedInAdmissionOrder) {
  // req-0 is held hostage while req-1/req-2 complete; their replies must
  // still come out 0, 1, 2.
  auto gate = std::make_shared<Gate>();
  service::ShardedStreamingService svc(fake_options(3), 1);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    if (r.id == "req-0") gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("order");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("req-0"));
  client.send_frame(FrameType::kRequest, request_json("req-1"));
  client.send_frame(FrameType::kRequest, request_json("req-2"));
  client.send_frame(FrameType::kEnd, "");

  // Wait until req-0 is parked, then let req-1/req-2 drain through the
  // pool first.
  gate->wait_entered(1);
  while (svc.in_flight() > 1) std::this_thread::yield();
  gate->release();

  const auto frames = read_until_end(client);
  (void)server.finish();
  std::vector<std::size_t> reply_positions;
  std::vector<std::string> ids;
  for (const auto& f : frames) {
    if (f.type != FrameType::kReply) continue;
    for (const char* id : {"req-0", "req-1", "req-2"}) {
      if (f.payload.find("\"id\":\"" + std::string(id) + "\"") !=
          std::string::npos) {
        ids.emplace_back(id);
      }
    }
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"req-0", "req-1", "req-2"}));
}

TEST(FrontEndTest, ConnectionCapRejectsWithTypedError) {
  service::ShardedStreamingService svc(fake_options(1), 1);
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("conncap");
  options.max_connections = 1;
  TestServer server(svc, options);

  auto first = BlockingClient::to_unix(options.unix_path);
  first.send_header();
  // A STAT round trip proves the server has ACCEPTED first before the
  // second client arrives (connect() alone only proves the backlog took
  // it).
  first.send_frame(FrameType::kStat, "");
  const auto stat_reply = first.read_frame();
  ASSERT_TRUE(stat_reply.has_value());
  EXPECT_EQ(stat_reply->type, FrameType::kTelemetry);

  auto second = BlockingClient::to_unix(options.unix_path);
  const auto frames = read_until_end(second);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find("overloaded: connection limit reached"),
            std::string::npos)
      << frames[0].payload;
  EXPECT_EQ(frames[1].type, FrameType::kEnd);

  first.send_frame(FrameType::kEnd, "");
  const auto tail = read_until_end(first);
  EXPECT_EQ(tail.back().type, FrameType::kEnd);

  const auto& stats = server.finish();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.clean_ends, 1u);
}

TEST(FrontEndTest, InflightCapRejectsRequestsWithTypedError) {
  auto gate = std::make_shared<Gate>();
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("inflight");
  options.max_inflight = 1;
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("req-0"));
  client.send_frame(FrameType::kRequest, request_json("req-1"));
  client.send_frame(FrameType::kRequest, request_json("req-2"));

  // The over-cap ERRs are queued synchronously at parse time, before any
  // session completes.
  for (int i = 0; i < 2; ++i) {
    const auto err = client.read_frame();
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, FrameType::kError);
    EXPECT_NE(err->payload.find("overloaded: in-flight limit reached"),
              std::string::npos)
        << err->payload;
  }
  gate->release();
  const auto reply = client.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kReply);
  EXPECT_NE(reply->payload.find("\"id\":\"req-0\""), std::string::npos);
  client.send_frame(FrameType::kEnd, "");
  const auto tail = read_until_end(client);
  EXPECT_EQ(tail.back().type, FrameType::kEnd);

  const auto& stats = server.finish();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.replies, 1u);
  EXPECT_EQ(stats.overloaded_requests, 2u);
  EXPECT_EQ(stats.failed_sessions, 0u);
}

TEST(FrontEndTest, OversizedFrameGetsTypedErrorAndSparesOtherConns) {
  service::ShardedStreamingService svc(fake_options(1), 1);
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("oversize");
  TestServer server(svc, options);

  auto healthy = BlockingClient::to_unix(options.unix_path);
  healthy.send_header();

  auto hostile = BlockingClient::to_unix(options.unix_path);
  hostile.send_header();
  // A 12-byte frame head claiming 16 MiB + 1 of payload; the server must
  // reject at the head without ever waiting for the bytes.
  std::string head;
  const auto tag = static_cast<std::uint32_t>(FrameType::kRequest);
  for (int i = 0; i < 4; ++i) {
    head.push_back(static_cast<char>((tag >> (8 * i)) & 0xffu));
  }
  const std::uint64_t huge = service::kMaxFramePayload + 1;
  for (int i = 0; i < 8; ++i) {
    head.push_back(static_cast<char>((huge >> (8 * i)) & 0xffu));
  }
  ASSERT_EQ(::send(hostile.fd(), head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  const auto frames = read_until_end(hostile);
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find("claims"), std::string::npos)
      << frames[0].payload;
  EXPECT_EQ(frames.back().type, FrameType::kEnd);

  // The hostile connection died alone: the healthy one still serves.
  healthy.send_frame(FrameType::kRequest, request_json("alive"));
  healthy.send_frame(FrameType::kEnd, "");
  const auto ok_frames = read_until_end(healthy);
  EXPECT_EQ(count_type(ok_frames, FrameType::kReply), 1u);
  EXPECT_EQ(ok_frames.back().type, FrameType::kEnd);

  const auto& stats = server.finish();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.replies, 1u);
  EXPECT_EQ(stats.clean_ends, 1u);
}

TEST(FrontEndTest, MidstreamDisconnectDoesNotPoisonOtherConnections) {
  service::ShardedStreamingService svc(fake_options(1), 1);
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("midstream");
  TestServer server(svc, options);

  // Flavor 1 — half-close: the peer stops sending mid-frame but still
  // reads. The server must answer with the stream reader's typed
  // truncation ERR and a decodable tail.
  auto truncating = BlockingClient::to_unix(options.unix_path);
  truncating.send_header();
  const std::string bytes =
      service::encode_frame(FrameType::kRequest, request_json("never"));
  ASSERT_EQ(::send(truncating.fd(), bytes.data(), bytes.size() / 2,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size() / 2));
  truncating.shutdown_writes();
  const auto err_frames = read_until_end(truncating);
  ASSERT_GE(err_frames.size(), 2u);
  EXPECT_EQ(err_frames[0].type, FrameType::kError);
  EXPECT_NE(err_frames[0].payload.find("truncated wire stream inside a frame"),
            std::string::npos)
      << err_frames[0].payload;
  EXPECT_EQ(err_frames.back().type, FrameType::kEnd);

  // Flavor 2 — hard close: the peer vanishes entirely (its unread greeting
  // turns the server's read into ECONNRESET). Transport reset, not a
  // protocol error; teardown must be clean either way.
  auto vanishing = BlockingClient::to_unix(options.unix_path);
  vanishing.send_header();
  ASSERT_EQ(::send(vanishing.fd(), bytes.data(), bytes.size() / 2,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size() / 2));
  vanishing.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto healthy = BlockingClient::to_unix(options.unix_path);
  healthy.send_header();
  healthy.send_frame(FrameType::kRequest, request_json("alive"));
  healthy.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(healthy);
  EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
  EXPECT_EQ(frames.back().type, FrameType::kEnd);

  const auto& stats = server.finish();
  EXPECT_EQ(stats.protocol_errors, 1u) << "flavor 1 only; resets don't count";
  EXPECT_EQ(stats.replies, 1u);
  EXPECT_EQ(stats.failed_sessions, 0u);
}

TEST(FrontEndTest, FlushBarrierAcksWithConnectionTele) {
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test([](const TuningRequest& r) {
    service::SessionReport report = fake_report(r);
    report.new_transitions.emplace_back();  // gives the flush a merge
    return report;
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("flush");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("pre"));
  client.send_frame(FrameType::kFlush, "");
  client.send_frame(FrameType::kRequest, request_json("post"));
  client.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(client);
  (void)server.finish();

  // REP(pre), TELE (flush ack), REP(post), TELE, METR, END.
  std::vector<FrameType> types;
  for (const auto& f : frames) types.push_back(f.type);
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kMetrics, FrameType::kEnd}));
  EXPECT_NE(frames[0].payload.find("\"id\":\"pre\""), std::string::npos);
  EXPECT_NE(frames[2].payload.find("\"id\":\"post\""), std::string::npos);
  // The ack carries the merge the barrier this connection waited on made.
  EXPECT_NE(frames[1].payload.find("\"merges\":1,"), std::string::npos)
      << frames[1].payload;
}

TEST(FrontEndTest, HalfCloseDuringFlushBarrierServesBufferedFrames) {
  // The client writes its whole conversation and half-closes while the
  // FLSH is still parked behind a hostage session. The frames behind the
  // barrier are complete, so they must all be served once it lifts: no
  // truncation ERR, and the FLSH still gets its TELE ack.
  auto gate = std::make_shared<Gate>();
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    if (r.id == "slow") gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("halfclose");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("slow"));
  client.send_frame(FrameType::kFlush, "");
  client.send_frame(FrameType::kRequest, request_json("post"));
  client.send_frame(FrameType::kEnd, "");
  client.shutdown_writes();
  gate->wait_entered(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->release();

  const auto frames = read_until_end(client);
  const auto& stats = server.finish();
  std::vector<FrameType> types;
  for (const auto& f : frames) types.push_back(f.type);
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kMetrics, FrameType::kEnd}));
  EXPECT_EQ(count_type(frames, FrameType::kError), 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.clean_ends, 1u);
}

TEST(FrontEndTest, StreamEndingErrorFollowsAdmittedReplies) {
  // Corrupt framing ends the stream, but a request admitted before it is
  // still answered first: REP, then the ERR, then the tail.
  auto gate = std::make_shared<Gate>();
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("errorder");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("admitted"));
  gate->wait_entered(1);
  std::string corrupt = service::encode_frame(FrameType::kEnd, "");
  corrupt.back() ^= 0x40;  // bad CRC
  ASSERT_EQ(::send(client.fd(), corrupt.data(), corrupt.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(corrupt.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->release();

  const auto frames = read_until_end(client);
  const auto& stats = server.finish();
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kReply);
  EXPECT_NE(frames[0].payload.find("\"id\":\"admitted\""), std::string::npos);
  EXPECT_EQ(frames[1].type, FrameType::kError);
  EXPECT_NE(frames[1].payload.find("checksum"), std::string::npos)
      << frames[1].payload;
  EXPECT_EQ(frames.back().type, FrameType::kEnd);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.replies, 1u);
}

TEST(FrontEndTest, ServeStreamReturnsAtEndWhileInputStaysOpen) {
  // A coprocess writes its stream, reads up to END and then waits for the
  // server to exit with its write end still open. serve_stream must
  // return at END instead of waiting for the input's EOF; the watchdog
  // closes the pipe only if it does not, so a regression fails, not hangs.
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test(fake_report);
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const FdGuard read_end(pipe_fds[0]);
  FdGuard write_end(pipe_fds[1]);
  const std::string input = service::encode_frames({
      {FrameType::kRequest, request_json("a")},
      {FrameType::kRequest, request_json("b")},
      {FrameType::kEnd, ""},
  });
  ASSERT_EQ(::write(write_end.get(), input.data(), input.size()),
            static_cast<ssize_t>(input.size()));

  std::mutex mutex;
  std::condition_variable cv;
  bool returned = false;
  bool watchdog_fired = false;
  std::thread watchdog([&] {
    std::unique_lock lock(mutex);
    if (!cv.wait_for(lock, std::chrono::seconds(20),
                     [&] { return returned; })) {
      watchdog_fired = true;
      write_end.reset();
    }
  });
  std::ostringstream out(std::ios::binary);
  const FrontEndStats stats = serve_stream(svc, read_end.get(), out);
  {
    std::scoped_lock lock(mutex);
    returned = true;
  }
  cv.notify_all();
  watchdog.join();

  EXPECT_FALSE(watchdog_fired) << "serve_stream waited for the input's EOF";
  EXPECT_EQ(stats.clean_ends, 1u);
  const auto frames = service::decode_frames(out.str());
  EXPECT_EQ(count_type(frames, FrameType::kReply), 2u);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().type, FrameType::kEnd);
}

TEST(FrontEndTest, BackToBackFlushBarriersBothAck) {
  // Regression: a FLSH decoded while re-pumping buffered frames after a
  // barrier re-parks the connection AFTER flush_waiters_ was reset; the
  // barrier must be re-evaluated, not left stranded in epoll_wait (this
  // test used to hang the loop forever).
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("flushflush");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("pre"));
  client.send_frame(FrameType::kFlush, "");
  client.send_frame(FrameType::kFlush, "");
  client.send_frame(FrameType::kRequest, request_json("post"));
  client.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(client);
  (void)server.finish();

  // REP(pre), TELE, TELE (each barrier acks), REP(post), TELE, METR, END.
  std::vector<FrameType> types;
  for (const auto& f : frames) types.push_back(f.type);
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kTelemetry, FrameType::kReply,
                       FrameType::kTelemetry, FrameType::kMetrics,
                       FrameType::kEnd}));
}

TEST(FrontEndTest, FramesBufferedDuringBarrierAreServedAfterResume) {
  // While a FLSH barrier holds the global pause, reads are deasserted, so
  // frames sent mid-barrier wait in the kernel socket buffer (bounded)
  // rather than the decoder backlog (unbounded). They must all be served
  // once the barrier resolves and reads re-arm.
  auto gate = std::make_shared<Gate>();
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    if (r.id == "slow") gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("pausedreads");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("slow"));
  client.send_frame(FrameType::kFlush, "");
  gate->wait_entered(1);
  // The barrier is pending (the session is hostage). These frames arrive
  // mid-pause.
  client.send_frame(FrameType::kRequest, request_json("post"));
  client.send_frame(FrameType::kEnd, "");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->release();

  const auto frames = read_until_end(client);
  (void)server.finish();
  std::vector<FrameType> types;
  for (const auto& f : frames) types.push_back(f.type);
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kMetrics, FrameType::kEnd}));
}

TEST(FrontEndTest, AbandonedFlushBarrierUnblocksOtherConnections) {
  // A client that sends FLSH and vanishes must not leave the global
  // admission pause wedged: the loop must notice the barrier dissolved
  // (no waiters left) and resume everyone else's reads and buffered
  // frames even though no merge ran.
  auto gate = std::make_shared<Gate>();
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    if (r.id == "slow") gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("flushabandon");
  TestServer server(svc, options);

  auto worker = BlockingClient::to_unix(options.unix_path);
  worker.send_header();
  worker.send_frame(FrameType::kRequest, request_json("slow"));
  gate->wait_entered(1);

  // Parks a barrier behind the hostage session, then vanishes.
  auto flusher = BlockingClient::to_unix(options.unix_path);
  flusher.send_header();
  flusher.send_frame(FrameType::kFlush, "");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // A bystander whose frames land while the pause is in force.
  auto bystander = BlockingClient::to_unix(options.unix_path);
  bystander.send_header();
  bystander.send_frame(FrameType::kRequest, request_json("by-0"));
  bystander.send_frame(FrameType::kEnd, "");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  flusher.close();

  // The bystander must be served while "slow" is STILL hostage: the
  // pause ended with the flusher, not with the merge.
  const auto frames = read_until_end(bystander);
  EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
  EXPECT_EQ(count_type(frames, FrameType::kError), 0u);
  EXPECT_EQ(frames.back().type, FrameType::kEnd);

  gate->release();
  const auto reply = worker.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kReply);
  worker.send_frame(FrameType::kEnd, "");
  const auto tail = read_until_end(worker);
  EXPECT_EQ(tail.back().type, FrameType::kEnd);
  (void)server.finish();
}

TEST(FrontEndTest, TcpHostnamesResolveViaGetaddrinfo) {
  // --tcp documents host:port; names (not just IPv4 literals) must bind
  // and connect. 'localhost' goes through getaddrinfo like any name.
  service::ShardedStreamingService svc(fake_options(1), 1);
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.tcp_host = "localhost";
  options.tcp_port = 0;
  TestServer server(svc, options);
  ASSERT_GT(server.tcp_port(), 0);

  auto client = BlockingClient::to_tcp("localhost", server.tcp_port());
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("named"));
  client.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(client);
  EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
  EXPECT_EQ(frames.back().type, FrameType::kEnd);
  const auto& stats = server.finish();
  EXPECT_EQ(stats.replies, 1u);
}

TEST(FrontEndTest, GracefulDrainFlushesInFlightRepliesAndTails) {
  auto gate = std::make_shared<Gate>();
  service::ShardedStreamingService svc(fake_options(2), 1);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("drain");
  options.drain_timeout_seconds = 30.0;
  TestServer server(svc, options);

  auto a = BlockingClient::to_unix(options.unix_path);
  a.send_header();
  a.send_frame(FrameType::kRequest, request_json("a-0"));
  auto b = BlockingClient::to_unix(options.unix_path);
  b.send_header();
  b.send_frame(FrameType::kRequest, request_json("b-0"));

  gate->wait_entered(2);
  server.front_end().request_shutdown();
  gate->release();

  for (auto* client : {&a, &b}) {
    const auto frames = read_until_end(*client);
    EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
    EXPECT_EQ(count_type(frames, FrameType::kTelemetry), 1u);
    EXPECT_EQ(frames.back().type, FrameType::kEnd);
  }
  const auto& stats = server.finish();
  EXPECT_EQ(stats.replies, 2u);
  EXPECT_EQ(stats.forced_closes, 0u);
  EXPECT_EQ(stats.clean_ends, 0u) << "neither client ever sent END";
}

TEST(FrontEndTest, DrainTimeoutForceClosesAndCountsStragglers) {
  auto gate = std::make_shared<Gate>();
  service::ShardedStreamingService svc(fake_options(1), 1);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("draintimeout");
  options.drain_timeout_seconds = 0.2;
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("stuck"));
  gate->wait_entered(1);
  server.front_end().request_shutdown();
  // Let the 200 ms drain window lapse with the session still hostage,
  // then release it so run() can retire the zombie and return.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  gate->release();

  const auto& stats = server.finish();
  EXPECT_EQ(stats.forced_closes, 1u);
  EXPECT_EQ(stats.replies, 0u) << "the peer was cut off before the reply";
}

TEST(FrontEndTest, IdleConnectionsTimeOutWithTypedError) {
  service::ShardedStreamingService svc(fake_options(1), 1);
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("idle");
  options.idle_timeout_seconds = 0.15;
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  const auto frames = read_until_end(client);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find("idle timeout"), std::string::npos);
  EXPECT_EQ(frames[1].type, FrameType::kEnd);

  const auto& stats = server.finish();
  EXPECT_EQ(stats.idle_timeouts, 1u);
}

TEST(FrontEndTest, ServesHundredsOfConcurrentMixedConnections) {
  // The acceptance bar: >= 256 simultaneously open connections across
  // both transports, every one answered, zero silent drops.
  constexpr std::size_t kPerTransport = 128;
  service::ShardedStreamingService svc(fake_options(2), 4);
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("fanin");
  options.tcp_port = 0;
  options.max_connections = 2 * kPerTransport + 8;
  options.max_inflight = 4096;
  TestServer server(svc, options);
  ASSERT_GT(server.tcp_port(), 0);

  // Open every connection and send every request BEFORE reading any
  // reply, so all 256 are in flight at once.
  std::vector<std::unique_ptr<BlockingClient>> clients;
  clients.reserve(2 * kPerTransport);
  for (std::size_t i = 0; i < 2 * kPerTransport; ++i) {
    const bool tcp = i % 2 == 1;
    clients.push_back(std::make_unique<BlockingClient>(
        tcp ? BlockingClient::to_tcp("127.0.0.1", server.tcp_port())
            : BlockingClient::to_unix(options.unix_path)));
    auto& client = *clients.back();
    client.send_header();
    client.send_frame(FrameType::kRequest,
                      request_json("conn-" + std::to_string(i)));
    client.send_frame(FrameType::kEnd, "");
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto frames = read_until_end(*clients[i]);
    EXPECT_EQ(count_type(frames, FrameType::kError), 0u) << "conn " << i;
    ASSERT_EQ(count_type(frames, FrameType::kReply), 1u) << "conn " << i;
    bool found = false;
    for (const auto& f : frames) {
      if (f.type == FrameType::kReply &&
          f.payload.find("\"id\":\"conn-" + std::to_string(i) + "\"") !=
              std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "conn " << i << " must get ITS reply";
    EXPECT_EQ(frames.back().type, FrameType::kEnd) << "conn " << i;
  }

  const auto& stats = server.finish();
  EXPECT_EQ(stats.accepted, 2 * kPerTransport);
  EXPECT_EQ(stats.requests, 2 * kPerTransport);
  EXPECT_EQ(stats.replies, 2 * kPerTransport);
  EXPECT_EQ(stats.clean_ends, 2 * kPerTransport);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.overloaded_requests, 0u);
  EXPECT_EQ(stats.failed_sessions, 0u);
  EXPECT_EQ(stats.forced_closes, 0u);
}

}  // namespace
}  // namespace deepcat::net
