// Streamserve: the no-barrier streaming side of `deepcat serve --stream`.
// Where quickserve.cpp submits one whole batch behind a barrier, this
// example admits requests one at a time, consumes reports in completion
// order, and flushes mid-stream so the master keeps learning between
// requests (continuous master updates). It finishes by driving the same
// requests through the framed DCWP wire protocol, client-side, against the
// in-process front end (one stdin-style connection over a socketpair).
//
//   $ ./streamserve
#include <cstdio>
#include <sstream>

#include "net/server.hpp"
#include "service/sharding.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

int main() {
  using namespace deepcat;
  using sparksim::WorkloadType;

  // 1. A streaming service routes requests to named master models; train
  //    one model per workload family to show the multi-model routing.
  service::StreamingOptions options;
  options.service.threads = 4;
  options.service.api.tuner.seed = 7;
  options.master_update_steps = 4;  // fine-tune steps after each merge
  service::ShardedStreamingService sharded(options, 1);
  service::StreamingService& svc = sharded.shard(0);

  std::puts("training models 'sort' and 'graph'...");
  svc.train_model("sort", sparksim::make_workload(WorkloadType::kTeraSort, 3.2),
                  400);
  svc.train_model("graph",
                  sparksim::make_workload(WorkloadType::kPageRank, 0.5), 400);

  // 2. Submit requests as they "arrive" — no batch boundary. Reports come
  //    back in completion order; each carries the model epoch it was
  //    served against.
  const char* suite[] = {"TS-D1", "PR-D1", "TS-D2", "PR-D2"};
  std::size_t seq = 0;
  for (const char* id : suite) {
    service::TuningRequest r;
    r.id = std::string("req-") + id;
    r.workload = id;
    r.model = (id[0] == 'T') ? "sort" : "graph";
    r.max_steps = 4;
    r.seed = 100 + seq++;
    svc.submit(std::move(r));
  }

  std::puts("\nid        model  epoch  best(s)  speedup");
  while (const auto report = svc.wait_completed()) {
    const auto& s = report->session;
    if (!s.ok) {
      std::printf("%-9s %-6s FAILED: %s\n", s.id.c_str(), s.model.c_str(),
                  s.error.c_str());
      continue;
    }
    std::printf("%-9s %-6s %5llu %8.1f %7.2fx\n", s.id.c_str(),
                s.model.c_str(),
                static_cast<unsigned long long>(report->model_epoch),
                s.report.best_time, s.report.speedup_over_default());
  }

  // 3. Flush: merge every session's experience into its master (canonical
  //    order, so the result is independent of arrival order), take the
  //    bounded fine-tune steps, and advance the model epochs.
  const std::size_t merged = svc.flush();
  std::printf("\nflush merged %zu transitions; epochs now sort=%llu graph=%llu\n",
              merged, static_cast<unsigned long long>(svc.model_epoch("sort")),
              static_cast<unsigned long long>(svc.model_epoch("graph")));

  // 4. The same conversation over the framed wire protocol: encode REQ
  //    frames (JSONL payloads), serve them through the front end, decode
  //    the REP frames (admission order).
  std::vector<std::pair<service::FrameType, std::string>> frames;
  for (const char* id : suite) {
    std::string payload = std::string("{\"id\":\"wire-") + id +
                          "\",\"workload\":\"" + id + "\",\"model\":\"" +
                          ((id[0] == 'T') ? "sort" : "graph") +
                          "\",\"steps\":3,\"seed\":" + std::to_string(7 + seq++) +
                          "}";
    frames.emplace_back(service::FrameType::kRequest, std::move(payload));
  }
  frames.emplace_back(service::FrameType::kEnd, std::string());

  std::istringstream wire_in(service::encode_frames(frames));
  std::ostringstream wire_out;
  const auto result = net::serve_stream(sharded, wire_in, wire_out);

  std::printf("\nwire stream: %zu requests, %zu failed, clean_end=%d\n",
              result.requests, result.failed_sessions,
              static_cast<int>(result.clean_ends));
  for (const auto& frame : service::decode_frames(wire_out.str())) {
    std::printf("  %-4s %s\n",
                service::frame_type_name(
                    static_cast<std::uint32_t>(frame.type)).c_str(),
                frame.payload.substr(0, 100).c_str());
  }

  const auto m = svc.metrics();
  std::printf(
      "\nserved %zu sessions (%zu failed), p50/p95 recommendation cost "
      "%.4f/%.4f s, mean speedup %.2fx\n",
      m.sessions_served, m.sessions_failed, m.p50_recommendation_seconds,
      m.p95_recommendation_seconds, m.mean_speedup);
  return 0;
}
