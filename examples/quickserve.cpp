// Quickserve: the programmatic side of `deepcat serve --requests`. Trains
// a master model once, publishes it to a versioned on-disk registry, then
// serves a mixed-workload batch of tuning requests concurrently on the
// streaming engine — each session clones the master, fine-tunes in
// isolation, and one flush merges every session's experience back into
// the shared RDPER pools afterwards (the paper's train-once / tune-many
// deployment, §2 and §4).
//
//   $ ./quickserve
#include <cstdio>

#include "service/service.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

int main() {
  using namespace deepcat;
  using sparksim::WorkloadType;

  // 1. A service owns the shared master model and the session pool. A
  //    batch merges once at its end, without master fine-tune steps.
  service::StreamingOptions options;
  options.service.threads = 4;
  options.service.api.tuner.seed = 7;
  options.master_update_steps = 0;
  service::StreamingService svc(options);

  // 2. Train once, publish to the registry. A later process (or a
  //    restarted service) loads the newest version instead of retraining.
  std::puts("training master on TeraSort(3.2GB)...");
  svc.train_model("demo",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 600);
  service::ModelRegistry registry("/tmp/deepcat_quickserve_registry");
  const auto version = registry.publish("demo", svc.master("demo"));
  std::printf("published model 'demo' v%u to %s\n", version,
              registry.directory().c_str());

  // 3. Serve a batch of mixed-workload requests concurrently. Reports
  //    come back in request order and are identical for any thread count.
  std::vector<service::TuningRequest> requests;
  for (const char* id : {"WC-D1", "TS-D1", "PR-D1", "KM-D1",
                         "WC-D2", "TS-D2", "PR-D2", "KM-D2"}) {
    service::TuningRequest r;
    r.id = std::string("req-") + id;
    r.workload = id;
    r.max_steps = 5;
    r.seed = 100 + requests.size();
    r.model = "demo";
    requests.push_back(r);
  }
  const service::BatchResult batch = service::serve_batch(svc, requests);

  std::puts("\nid            workload  default(s)  best(s)  speedup");
  for (const auto& report : batch.reports) {
    const service::SessionReport& r = report.session;
    if (!r.ok) {
      std::printf("%-13s %-9s FAILED: %s\n", r.id.c_str(),
                  r.workload.c_str(), r.error.c_str());
      continue;
    }
    std::printf("%-13s %-9s %9.1f %8.1f %7.2fx\n", r.id.c_str(),
                r.workload.c_str(), r.report.default_time,
                r.report.best_time, r.report.speedup_over_default());
  }

  const service::ServiceMetrics& m = batch.metrics;
  std::printf(
      "\nserved %zu sessions (%zu failed), %zu paid evaluations, "
      "p50/p95 recommendation cost %.4f/%.4f s, mean speedup %.2fx\n",
      m.sessions_served, m.sessions_failed, m.evaluations_paid,
      m.p50_recommendation_seconds, m.p95_recommendation_seconds,
      m.mean_speedup);
  return 0;
}
