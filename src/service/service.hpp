// Shared serving vocabulary: the options every serving path configures,
// the aggregate serving metrics and the one accumulator that builds them
// (SessionMetrics), and ModelRegistry, which persists named, versioned
// checkpoints on disk so a service restart resumes from the newest
// published model instead of retraining. The serving engine itself is
// StreamingService (streaming.hpp) behind net::FrontEnd (net/server.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/deepcat_api.hpp"
#include "obs/sink.hpp"
#include "service/session.hpp"

namespace deepcat::service {

/// Retained-sample cap for the service percentile trackers: exact
/// quantiles up to this many sessions, deterministic skeleton compaction
/// beyond it (common::QuantileTracker bounded mode), so an unbounded
/// request stream cannot grow service memory without limit.
inline constexpr std::size_t kRecCostSampleCap = 65536;

/// Fixed bucket upper edges for recommendation-cost histograms. Every
/// shard uses the same edges by construction, so cross-shard aggregation
/// can merge bucket counts exactly (sharding.hpp) instead of averaging
/// per-shard quantiles. Matches the "stream.rec_seconds" registry
/// histogram so wire and in-process views agree.
[[nodiscard]] inline const std::vector<double>& rec_cost_bucket_edges() {
  static const std::vector<double> edges{1.0,  2.0,   5.0,   10.0,  20.0,
                                         50.0, 100.0, 200.0, 500.0, 1000.0};
  return edges;
}

struct ServiceOptions {
  core::DeepCatApiOptions api;  ///< master model + environment settings
  std::string cluster = "a";    ///< master model's home cluster
  std::size_t threads = 0;      ///< session pool size; 0 = hardware
  /// Observability hand-off: propagated into the master's tuner options
  /// and every session clone, so losses, Twin-Q counters and spans from
  /// all layers land in one registry/tracer. Non-owning; inert by default.
  obs::Sink obs{};
};

/// Aggregate serving metrics over a set of sessions. Percentiles are over
/// per-session recommendation cost (the deterministic cost model,
/// tuners/tuner.hpp rec_cost) — the serving-latency proxy of this repo.
struct ServiceMetrics {
  std::size_t sessions_served = 0;  ///< successfully completed sessions
  std::size_t sessions_failed = 0;  ///< sessions that ended with an error
  std::size_t evaluations_paid = 0;   ///< paid config evaluations (paper cost)
  double evaluation_seconds = 0.0;
  double recommendation_seconds = 0.0;
  double p50_recommendation_seconds = 0.0;
  double p95_recommendation_seconds = 0.0;
  double mean_session_reward = 0.0;   ///< mean over sessions of mean step reward
  double mean_speedup = 0.0;          ///< mean best-vs-default speedup
  std::size_t merges = 0;             ///< experience merges into a master
  std::size_t merged_transitions = 0; ///< transitions folded into masters
  std::size_t fine_tune_steps = 0;    ///< bounded master fine-tune steps taken
  /// Per-bucket counts of per-session recommendation cost over
  /// rec_cost_bucket_edges() (+1 overflow bucket). Carried for exact
  /// cross-shard percentile aggregation only — never serialized into
  /// TELE, so transcripts are unchanged. Empty when the service
  /// predates the field (aggregators treat empty as all-zero).
  std::vector<std::uint64_t> rec_buckets;
};

/// The one session-metrics accumulator: the service totals, every
/// connection's TELE aggregate and the batch aggregate line are all built
/// by it. The float sums depend on the order sessions are recorded in, so
/// callers whose output bytes must be deterministic feed it in a fixed
/// order (admission order per connection, request order per batch).
class SessionMetrics {
 public:
  SessionMetrics();

  /// Counts one finished session (failed sessions only bump `failed`).
  void record(const SessionReport& report);
  /// Counts one experience merge into a master.
  void record_merge(std::size_t transitions, std::size_t fine_tune_steps);
  /// Adds the merge counters a barrier moved: `after` minus `before`, two
  /// service snapshots taken around the flush the caller waited on.
  void record_barrier(const ServiceMetrics& before,
                      const ServiceMetrics& after);
  [[nodiscard]] ServiceMetrics snapshot() const;

 private:
  ServiceMetrics totals_;
  /// Exact quantiles up to kRecCostSampleCap sessions, bounded beyond.
  common::QuantileTracker rec_costs_{kRecCostSampleCap};
  double speedup_sum_ = 0.0;
  double reward_sum_ = 0.0;
};

/// Named, versioned checkpoint store on disk: `<dir>/<name>.v<N>.dckp`.
/// publish() writes tmp-then-rename, so readers never see a torn file and
/// the newest complete version always wins.
class ModelRegistry {
 public:
  explicit ModelRegistry(std::string directory);

  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

  /// Saves `model` as the next version of `name`; returns that version.
  std::uint32_t publish(const std::string& name, core::DeepCat& model);

  /// Highest published version of `name`, or nullopt if none.
  [[nodiscard]] std::optional<std::uint32_t> latest_version(
      const std::string& name) const;

  [[nodiscard]] std::string path_for(const std::string& name,
                                     std::uint32_t version) const;

  /// Restores `name` at `version` into `model` (CheckpointError on failure).
  void load_into(const std::string& name, std::uint32_t version,
                 core::DeepCat& model) const;

 private:
  std::string dir_;
};

}  // namespace deepcat::service
