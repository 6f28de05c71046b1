// One tuning session = one online tuning request served against the shared
// offline-trained model (paper §2: train once, tune many). Sessions are
// designed to run concurrently on the service thread pool:
//
//   - clone-on-tune: each session deserializes the master checkpoint blob
//     into a private DeepCat instance, so its fine-tune gradient steps
//     never touch the shared networks;
//   - shared read-mostly pools: when the master uses RDPER, the session
//     samples the master's frozen P_high/P_low pools through a
//     SharedRdperReplay view under a shared mutex instead of copying them;
//   - write-back on completion: the transitions a session generates are
//     returned in its report and merged into the master pools by the
//     service at the next flush barrier, in canonical order — the paper's
//     cross-request memory sharing, kept deterministic.
//
// Because the master is frozen between flush barriers, a session's result
// is a pure function of (master checkpoint, request), independent of pool
// size and of which other sessions run beside it.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/deepcat_api.hpp"
#include "rl/replay_rdper.hpp"
#include "tuners/tuner.hpp"

namespace deepcat::service {

/// AutoScope-style tuning scope: which key a session's model is tuned
/// under. kGlobal shares one model per name (today's behaviour);
/// kWorkload/kHardware fork a scoped model per workload id / cluster tag,
/// so one served name tunes independently at each configured scope.
enum class TuneScope { kGlobal, kWorkload, kHardware };

[[nodiscard]] std::string to_string(TuneScope scope);

/// One online tuning request: workload + cluster + budget + determinism
/// seed. `workload` is a HiBench suite id ("WC-D1" .. "KM-D3") or a
/// streaming suite id ("SA-P1" .. "SJ-P2"); streaming requests run one
/// long phase-shifted session where max_steps counts evaluation windows.
struct TuningRequest {
  std::string id;             ///< caller's correlation id, echoed back
  std::string workload;       ///< HiBench case id, e.g. "TS-D1"
  std::string cluster = "a";  ///< "a" (testbed) or "b" (VM cluster)
  int max_steps = 5;          ///< paid online evaluations
  double max_total_seconds = 1e18;  ///< tuning-time budget (paper §2)
  std::uint64_t seed = 1;     ///< per-session determinism seed
  /// Named master model to serve against (multi-model routing; the
  /// `serve --requests` batch stamps its --model on every request).
  std::string model = "default";
  /// Warm-start: number of experience-index neighbours requested (wire
  /// "warm" field; 0 = cold request, the default). The service resolves
  /// this into `warm_actions` before the session runs; a warm request
  /// against a service with no index loaded is a typed protocol error.
  int warm_k = 0;
  /// Retrieved seed actions (normalized [0,1]^kNumKnobs, nearest first),
  /// replayed as the first online steps before the actor takes over.
  std::vector<std::vector<double>> warm_actions;
  /// AutoScope-style scope descriptor (wire "scope" field; kGlobal = omitted
  /// = today's behaviour). Non-global scopes route the session to a
  /// scope-keyed model derived from `model` via scoped_model_key().
  TuneScope scope = TuneScope::kGlobal;
  /// Client-supplied trace id (wire "trace" field; empty = untraced
  /// request, the default). A traced REP echoes it plus a deterministic
  /// server span id; malformed values are typed parse errors like
  /// "warm"/"scope".
  std::string trace_id;
  /// Client-side parent span id accompanying trace_id (wire "span" field,
  /// optional; requires "trace"). Carried for trace-file correlation —
  /// server spans parent under server-local spans, not this foreign id.
  std::uint64_t trace_span = 0;
  /// Transport-local parent span id for the service's "request" span
  /// (e.g. the front end's per-connection span). Never serialized.
  std::uint64_t server_parent_span = 0;
  /// Transport-measured REQ decode time (clock ns), feeding the gated
  /// per-stage timing block in the REP. Never serialized.
  std::uint64_t decode_ns = 0;
};

/// The registry/routing key a request's model resolves to under its scope:
/// kGlobal -> "m", kWorkload -> "m@wl:<workload>", kHardware ->
/// "m@hw:<cluster>". Scoped keys feed both ModelRegistry lookup and shard
/// routing, so the same name tunes independently per workload or hardware
/// class while checkpoints stay bit-identical across shard/thread layouts.
[[nodiscard]] std::string scoped_model_key(const TuningRequest& request);

/// Inverse of scoped_model_key's derivation: the base model name a scoped
/// key was forked from ("m@wl:TS-D1" -> "m"), or nullopt for unscoped
/// keys. The streaming service bootstraps a scoped model that has no
/// published version from its base model's genesis checkpoint.
[[nodiscard]] std::optional<std::string> scope_base_of(
    const std::string& model_key);

/// Deterministic server span id echoed in a traced REP: 64-bit FNV-1a of
/// trace id + '\0' + request id, forced nonzero. Deliberately NOT the
/// tracer's internal span id — tracer ids are assigned in admission order
/// across all connections, so echoing them would make traced transcripts
/// depend on scheduling; this hash is a pure function of the request.
[[nodiscard]] inline std::uint64_t trace_server_span(
    const std::string& trace_id, const std::string& request_id) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix(trace_id);
  h ^= 0u;
  h *= 1099511628211ull;
  mix(request_id);
  return h == 0 ? 1 : h;
}

/// Per-stage server-side timings for one traced request (clock ns; tick
/// counts under LogicalClock). Emitted in the REP only when the serve
/// path opts in (StreamingOptions.reply_timings) — tick deltas depend
/// on global clock interleaving, so determinism suites keep them off.
struct StageTimings {
  std::uint64_t decode_ns = 0;   ///< REQ payload parse
  std::uint64_t queue_ns = 0;    ///< submit -> pool thread pickup
  std::uint64_t session_ns = 0;  ///< run_session
  std::uint64_t merge_ns = 0;    ///< completion bookkeeping + master merge
  std::uint64_t write_ns = 0;    ///< REP body serialization
};

/// Outcome of one session. `new_transitions` carries the experience the
/// session generated, in insertion order, for the service's flush-time
/// merge into the master pools.
struct SessionReport {
  std::string id;
  std::string workload;
  std::string cluster;
  std::string model;  ///< master model that served this session (streaming)
  bool ok = false;
  std::string error;
  /// Warm-start seed actions actually replayed (0 for cold sessions); the
  /// REP body carries this as "warm" only when nonzero, keeping cold
  /// transcripts byte-identical.
  int warm_seeds = 0;
  /// Scope level this session tuned under ("workload"/"hardware"); empty for
  /// global scope, in which case the REP omits the "scope" key so legacy
  /// transcripts stay byte-identical.
  std::string scope;
  /// Echoed trace context: the request's trace id plus the deterministic
  /// server span id (FNV-1a of trace id + request id, never 0). Empty
  /// trace_id omits both keys, keeping untraced REPs byte-identical.
  std::string trace_id;
  std::uint64_t server_span = 0;
  /// Gated per-stage timing block ("t_*_ns" keys); absent by default.
  std::optional<StageTimings> timings;
  tuners::TuningReport report;
  std::vector<rl::Transition> new_transitions;

  [[nodiscard]] double mean_reward() const noexcept;
};

/// Thread-safe RDPER view for concurrent sessions: samples the master's
/// pools (frozen during a batch) under a shared lock and appends the
/// session's own transitions to a private overlay. Sampling replicates
/// RdperReplay::sample exactly over the combined master+overlay pools —
/// same draw order, same beta split — so a session behaves bit-identically
/// to one holding a private copy of the master pools. Sampled transitions
/// are copied into internal scratch storage (valid until the next sample
/// call), so the returned batch never points into the shared pools.
///
/// The overlay appends rather than ring-overwriting: a session adds a
/// handful of transitions against pools sized in the tens of thousands, so
/// master-capacity eviction is deferred to the service's merge step.
class SharedRdperReplay final : public rl::ReplayBuffer {
 public:
  /// Snapshots the master pool sizes (the master must stay frozen while
  /// any session holds this view) and shares `mutex` with every other
  /// concurrent view over the same master.
  SharedRdperReplay(const rl::RdperReplay& master, std::shared_mutex& mutex);

  void add(rl::Transition t) override;
  [[nodiscard]] rl::SampledBatch sample(std::size_t m,
                                        common::Rng& rng) override;
  [[nodiscard]] std::size_t size() const noexcept override;
  [[nodiscard]] std::size_t capacity() const noexcept override;

  /// Every transition added through this view, in insertion order.
  [[nodiscard]] const std::vector<rl::Transition>& session_transitions()
      const noexcept {
    return session_log_;
  }

 private:
  const rl::RdperReplay& master_;
  std::shared_mutex& mutex_;
  rl::RdperConfig config_;
  std::size_t master_high_ = 0;  ///< frozen master pool sizes
  std::size_t master_low_ = 0;
  std::vector<rl::Transition> local_high_, local_low_;
  std::vector<rl::Transition> session_log_;
  std::vector<rl::Transition> scratch_;  ///< last sampled batch's storage
};

/// Runs one session against the master checkpoint `blob`. When
/// `master_pools` is non-null the session samples them through a
/// SharedRdperReplay guarded by `master_mutex`; otherwise it fine-tunes on
/// the private replay restored from the blob. Never throws: failures come
/// back as ok = false with the error message.
[[nodiscard]] SessionReport run_session(const std::string& blob,
                                        const core::DeepCatApiOptions& api,
                                        const TuningRequest& request,
                                        const rl::RdperReplay* master_pools,
                                        std::shared_mutex* master_mutex);

}  // namespace deepcat::service
