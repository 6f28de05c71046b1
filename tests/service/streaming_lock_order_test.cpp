// Lock-order stress for StreamingService: train_model / load_model replace
// a master while submit() admits sessions against the same name and those
// sessions clone the master under its entry lock. flush() holds the
// scheduler lock while it merges under the entry lock, so a replace that
// held the entry lock while taking the scheduler lock could deadlock. A
// watchdog turns such a hang into a failing exit instead of a stuck test;
// under ThreadSanitizer (detect_deadlocks) the inverted order is reported
// even when the interleaving does not hang.
#include "service/streaming.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using namespace std::chrono_literals;

StreamingOptions lock_stress_options() {
  StreamingOptions o;
  o.service.threads = 2;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {16, 16};
  o.service.api.tuner.warmup_steps = 8;
  o.service.api.env.seed = 1007;
  return o;
}

// Exits the test process with a failure if `done` is not set in time: a
// deadlocked service would otherwise hang the suite until its timeout.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          const auto deadline = std::chrono::steady_clock::now() + limit;
          while (!done_.load()) {
            if (std::chrono::steady_clock::now() > deadline) {
              std::fprintf(stderr,
                           "watchdog: replace/submit race did not finish; "
                           "lock-order deadlock suspected\n");
              std::_Exit(1);
            }
            std::this_thread::sleep_for(10ms);
          }
        }) {}
  ~Watchdog() {
    done_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

TEST(StreamingLockOrderTest, ReplaceModelRacesSubmitsWithoutDeadlock) {
  const auto workload =
      sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2);
  StreamingService svc(lock_stress_options());
  svc.train_model("default", workload, 16);
  const std::string blob = svc.checkpoint_of("default");

  Watchdog watchdog(120s);
  constexpr int kReplacements = 8;
  constexpr std::size_t kRequests = 24;
  std::thread replacer([&] {
    for (int i = 0; i < kReplacements; ++i) {
      if (i % 2 == 0) {
        svc.train_model("default", workload, 2);
      } else {
        std::istringstream in(blob, std::ios::binary);
        svc.load_model("default", in);
      }
    }
  });
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1"};
  for (std::size_t i = 0; i < kRequests; ++i) {
    TuningRequest r;
    r.id = "race-" + std::to_string(i);
    r.workload = cases[i % std::size(cases)];
    r.cluster = "a";
    r.max_steps = 1;
    r.seed = 500 + i;
    svc.submit(r);
  }
  replacer.join();

  std::size_t completed = 0;
  while (auto report = svc.wait_completed()) {
    ++completed;
    EXPECT_TRUE(report->session.ok || !report->session.error.empty())
        << report->session.id;
  }
  EXPECT_EQ(completed, kRequests);
  (void)svc.flush();
  EXPECT_TRUE(svc.has_model("default"));
}

}  // namespace
}  // namespace deepcat::service
