// StreamingService: the serving engine over the DeepCAT library. It
// admits requests as they arrive, runs them on the thread pool as
// clone-on-tune sessions, and hands reports back in completion order.
// Every serving path runs through it: the net front end (sockets, and
// stdin/stdout over a socketpair) and serve_batch below. Determinism is
// preserved by a sequencer discipline instead of a barrier:
//
//   - sessions are pure functions of (master snapshot, request): every
//     request admitted between two flush boundaries is served against the
//     same frozen epoch snapshot of its model, so a report never depends
//     on thread count or arrival order;
//   - at a flush boundary (explicit FLSH frame, end of stream, or model
//     eviction) the completed sessions' experience is merged into the
//     master RDPER pools in CANONICAL order — ascending (id, seed,
//     workload), not arrival order — so the post-merge master state is a
//     pure function of the request set, not of scheduling;
//   - after each merge the master takes bounded fine-tune steps
//     (Td3Agent::fine_tune) — the "continuous master updates" that keep
//     the shared model learning between requests — and its model epoch
//     advances; every report carries the epoch that served it.
//
// Multi-model routing: requests name a model. The service lazily loads
// named checkpoints from the ModelRegistry under a shared lock and evicts
// idle least-recently-used models when more than `max_loaded_models` are
// resident (merging and republishing their learned state first).
//
// Threading contract: submit/flush/poll_completed/wait_completed are
// driver APIs — call them from one thread (the stream loop). Sessions
// complete concurrently on the pool; all shared state crossings are
// internal.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/deepcat_api.hpp"
#include "obs/build_info.hpp"
#include "obs/sink.hpp"
#include "retrieval/index.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace deepcat::service {

struct StreamingOptions {
  ServiceOptions service;  ///< master/env settings + session pool size
  /// Bounded fine-tune steps the master takes after each experience merge
  /// (0 disables continuous master updates).
  std::size_t master_update_steps = 4;
  /// Resident-model cap for multi-model routing; idle LRU models beyond
  /// it are merged, republished and evicted.
  std::size_t max_loaded_models = 4;
  /// Registry directory for lazy model loading; empty disables routing
  /// beyond explicitly loaded/trained models.
  std::string registry_dir;
  /// Build-info fields stamped into the METR frame. Defaults (nullopt) to
  /// the live current_build_info(); golden tests pin a fixed value so the
  /// transcripts stay byte-identical across numeric backends.
  std::optional<obs::BuildInfo> build_info;
  /// Emit the per-stage timing block ("t_*_ns" keys) in traced REPs.
  /// Requires a tracer in the sink (its clock is the time source). Off by
  /// default: tick deltas depend on global clock interleaving, so the
  /// determinism suites and goldens keep trace-timing-free transcripts.
  bool reply_timings = false;
};

/// One completed session plus its serving metadata.
struct StreamReport {
  SessionReport session;
  std::uint64_t model_epoch = 0;  ///< master epoch that served the session
  std::uint64_t sequence = 0;     ///< admission index (monotonic)
};

class StreamingService {
 public:
  /// Test seam: replaces run_session with a deterministic fake so protocol
  /// transcripts can be byte-exact without depending on model float math.
  using SessionRunner = std::function<SessionReport(const TuningRequest&)>;

  explicit StreamingService(StreamingOptions options = {});

  [[nodiscard]] const StreamingOptions& options() const noexcept {
    return options_;
  }

  /// Explicit model bootstrap (the CLI uses these for the default model;
  /// other models load lazily from the registry on first request).
  void train_model(const std::string& name,
                   const sparksim::WorkloadSpec& workload,
                   std::size_t iterations);
  void load_model(const std::string& name, std::istream& is);
  void load_model_file(const std::string& name, const std::string& path);

  [[nodiscard]] bool has_model(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> loaded_models() const;

  /// Genesis checkpoint for scope forks: a scoped model key ("m@wl:...")
  /// with no resident entry and no published registry version bootstraps
  /// from its base model's seed blob. train_model/load_model* record the
  /// seed automatically; the sharded router distributes it to every shard
  /// so a scoped fork starts from identical bytes on any shard layout.
  void set_scope_seed(const std::string& base,
                      std::shared_ptr<const std::string> blob);

  /// The live master for `name` (throws std::out_of_range when not
  /// resident). Mutating it while requests are in flight is on the caller.
  [[nodiscard]] core::DeepCat& master(const std::string& name = "default");

  /// Warm-start experience index for `warm` requests (DESIGN.md §12).
  /// Set once before serving; requests with warm_k > 0 are resolved into
  /// seed actions by k-NN retrieval against this index at admission time.
  void set_warm_index(std::shared_ptr<const retrieval::ExperienceIndex> index);
  [[nodiscard]] bool has_warm_index() const;

  /// Typed-error precheck for the wire transport: a warm request against
  /// a missing/empty index returns the ERR message to emit; nullopt means
  /// the request is admissible.
  [[nodiscard]] std::optional<std::string> warm_error(
      const TuningRequest& request) const;

  /// Admits one request; returns immediately. Unknown models and snapshot
  /// failures surface as a completed ok=false report, never an exception.
  void submit(TuningRequest request);

  /// Completion hand-off for callers that multiplex several clients over
  /// one service (the net front end): invoked exactly once per submitted
  /// request, after the service bookkeeping settles, instead of queueing
  /// the report on the poll/wait queue. Runs on a pool worker thread (or
  /// inline on the submitting thread when admission fails synchronously);
  /// it must not block and must not call back into driver APIs.
  using CompletionCallback = std::function<void(StreamReport)>;
  void submit(TuningRequest request, CompletionCallback on_done);

  /// True when no session is in flight — the nonblocking form of the
  /// flush() precondition. The front end defers FLSH barriers on this
  /// instead of blocking its event loop in flush().
  [[nodiscard]] bool idle() const;

  /// Sessions currently in flight (admitted, not yet completed).
  [[nodiscard]] std::size_t in_flight() const;

  /// Next completed report in completion order, or nullopt if none is
  /// ready right now (poll) / none will ever arrive because the service is
  /// idle (wait — it blocks while sessions are in flight).
  [[nodiscard]] std::optional<StreamReport> poll_completed();
  [[nodiscard]] std::optional<StreamReport> wait_completed();

  /// Barrier: waits for every in-flight session, merges all pending
  /// experience (canonical order) into each model, takes the bounded
  /// master fine-tune steps and advances the epochs of models that
  /// changed. Returns the number of transitions merged.
  std::size_t flush();

  /// Monotonic epoch of a resident model (1 = as loaded/trained).
  [[nodiscard]] std::uint64_t model_epoch(
      const std::string& name = "default") const;

  /// Serialized checkpoint of a resident model's current state — the
  /// determinism stress tests hash this across arrival orders.
  [[nodiscard]] std::string checkpoint_of(
      const std::string& name = "default");

  [[nodiscard]] ServiceMetrics metrics() const;

  /// Build info for the METR/TELE frames: the configured override, else
  /// the live dispatch/thread state.
  [[nodiscard]] obs::BuildInfo build_info() const;

  /// The sink's metrics registry (null when observability is off); the
  /// TELE encoder reads the instrument set through this.
  [[nodiscard]] const obs::MetricsRegistry* metrics_registry() const noexcept {
    return options_.service.obs.metrics;
  }

  /// The sink's convergence time-series registry (null = no TSER frames,
  /// byte-identical v2-shaped streams).
  [[nodiscard]] const obs::TimeSeriesRegistry* timeseries_registry()
      const noexcept {
    return options_.service.obs.series;
  }

  void set_session_runner_for_test(SessionRunner runner) {
    runner_ = std::move(runner);
  }

 private:
  /// Experience of one completed session, keyed for the canonical merge.
  struct PendingExperience {
    std::string id;
    std::uint64_t seed = 0;
    std::string workload;
    std::uint64_t sequence = 0;  ///< admission index, the last tie-break
    std::vector<rl::Transition> transitions;
  };

  /// One resident master model. `mutex` freezes the model while sessions
  /// sample its pools (shared) and is taken exclusively for merges; the
  /// bookkeeping fields are guarded by state_mutex_.
  struct MasterEntry {
    MasterEntry(const sparksim::ClusterSpec& cluster,
                const core::DeepCatApiOptions& api)
        : model(cluster, api) {}
    core::DeepCat model;
    std::shared_mutex mutex;
    std::uint64_t epoch = 1;
    std::shared_ptr<const std::string> blob;  ///< current epoch snapshot
    std::size_t in_flight = 0;
    std::uint64_t last_used = 0;  ///< admission sequence, for LRU eviction
    std::vector<PendingExperience> pending;
    bool dirty = false;  ///< merged experience since load (republish on evict)
    bool stub = false;   ///< test-runner entry without a trained master
  };

  [[nodiscard]] std::unique_ptr<MasterEntry> make_entry() const;
  /// Finds or lazily loads the model; throws on unknown names.
  [[nodiscard]] MasterEntry& resolve_entry(const std::string& name);
  [[nodiscard]] MasterEntry& ensure_entry_locked(const std::string& name);
  void complete_failed(const TuningRequest& request, const std::string& error,
                       const CompletionCallback& on_done);
  void on_complete(MasterEntry& entry, const TuningRequest& request,
                   SessionReport report, std::uint64_t epoch,
                   std::uint64_t sequence, const CompletionCallback& on_done);
  /// `model_key` is the scoped routing key the session was served under,
  /// naming its "model.<key>.best_reward" convergence series.
  void record_metrics_locked(const SessionReport& report,
                             const std::string& model_key);
  /// Merges one entry's pending experience; requires state_mutex_ held and
  /// no in-flight sessions on the entry. Returns transitions merged.
  std::size_t merge_entry_locked(MasterEntry& entry);
  /// Evicts idle LRU entries down to the cap; requires registry_mutex_
  /// held exclusively.
  void evict_idle_locked();

  /// Resolves a warm request's seed actions from the index; throws on an
  /// unknown workload. Requires a non-empty index (warm_error precheck).
  void resolve_warm(TuningRequest& request,
                    const retrieval::ExperienceIndex& index);

  StreamingOptions options_;
  sparksim::ClusterSpec cluster_;
  std::optional<ModelRegistry> registry_;
  SessionRunner runner_;
  std::shared_ptr<const retrieval::ExperienceIndex> warm_index_;
  /// Base-model genesis blobs for scoped-key bootstrap (state_mutex_).
  std::map<std::string, std::shared_ptr<const std::string>> scope_seeds_;

  /// Guards the entries_ map (lookup shared, lazy load/evict exclusive).
  mutable std::shared_mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<MasterEntry>> entries_;

  /// Guards the scheduler state: queues, counters, metrics, entry
  /// bookkeeping fields.
  mutable std::mutex state_mutex_;
  std::condition_variable completion_cv_;
  std::deque<StreamReport> completed_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_sequence_ = 0;
  /// Completion-order totals (the live view STAT polls and /varz read).
  SessionMetrics totals_;
  /// Running best session reward per served model key, feeding the
  /// "model.<key>.best_reward" convergence series.
  std::map<std::string, double> best_reward_;

  // Registry instruments, resolved once at construction; null when the
  // sink is inert. The queue-depth gauge registers as nondeterministic —
  // how deep the queue gets is exactly what scheduling decides.
  obs::Counter* obs_admitted_ = nullptr;
  obs::Counter* obs_sessions_ok_ = nullptr;
  obs::Counter* obs_sessions_failed_ = nullptr;
  obs::Counter* obs_flushes_ = nullptr;
  obs::Counter* obs_merges_ = nullptr;
  obs::Counter* obs_merged_transitions_ = nullptr;
  obs::Counter* obs_fine_tune_steps_ = nullptr;
  obs::Counter* obs_snapshots_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_warm_requests_ = nullptr;
  obs::Counter* obs_warm_hits_ = nullptr;
  obs::Histogram* obs_rec_seconds_ = nullptr;
  obs::Gauge* obs_queue_depth_ = nullptr;

  /// Declared last: its destructor runs every queued session and joins
  /// before any state above is torn down.
  common::ThreadPool pool_;
};

/// Reports of one batch plus the batch's own aggregate.
struct BatchResult {
  std::vector<StreamReport> reports;  ///< in request order
  /// Sessions recorded in request order, so the float sums are identical
  /// for any thread count; the merge counters are the flush's.
  ServiceMetrics metrics;
};

/// Serves `requests` as one batch: submits them all, waits for every
/// session, then merges once with a single flush. Every session of the
/// batch is served against the same epoch snapshot. Call it on a service
/// with no other unconsumed reports (it drains the completion queue).
[[nodiscard]] BatchResult serve_batch(
    StreamingService& service, const std::vector<TuningRequest>& requests);

/// Canonical wire payload encoders: stream_reply_payload is the REP body
/// (report + model epoch, no trailing newline); stream_error_payload
/// wraps a message as the ERR body.
[[nodiscard]] std::string stream_reply_payload(const StreamReport& report);
[[nodiscard]] std::string stream_error_payload(const std::string& message);

/// Validates a STAT frame payload (must be empty or a flat JSON object).
/// Returns nullopt when well formed, else the parse error message.
[[nodiscard]] std::optional<std::string> stat_payload_error(
    const std::string& payload);

}  // namespace deepcat::service
