#include "service/streaming.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {

namespace {

sparksim::ClusterSpec streaming_cluster(const std::string& tag) {
  if (tag == "b" || tag == "B") return sparksim::cluster_b();
  return sparksim::cluster_a();
}

}  // namespace

StreamingService::StreamingService(StreamingOptions options)
    : options_((options.service.api.tuner.obs = options.service.obs,
                std::move(options))),
      cluster_(streaming_cluster(options_.service.cluster)),
      pool_(options_.service.threads) {
  if (!options_.registry_dir.empty()) {
    registry_.emplace(options_.registry_dir);
  }
  if (auto* metrics = options_.service.obs.metrics) {
    obs_admitted_ = &metrics->counter("stream.requests_admitted");
    obs_sessions_ok_ = &metrics->counter("stream.sessions_ok");
    obs_sessions_failed_ = &metrics->counter("stream.sessions_failed");
    obs_flushes_ = &metrics->counter("stream.flushes");
    obs_merges_ = &metrics->counter("stream.merges");
    obs_merged_transitions_ = &metrics->counter("stream.merged_transitions");
    obs_fine_tune_steps_ = &metrics->counter("stream.fine_tune_steps");
    obs_snapshots_ = &metrics->counter("stream.snapshots");
    obs_evictions_ = &metrics->counter("stream.evictions");
    obs_warm_requests_ = &metrics->counter("stream.warm_requests");
    obs_warm_hits_ = &metrics->counter("stream.warm_hits");
    obs_rec_seconds_ = &metrics->histogram(
        "stream.rec_seconds",
        {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0});
    obs_queue_depth_ =
        &metrics->gauge("stream.queue_depth", /*deterministic=*/false);
  }
}

std::unique_ptr<StreamingService::MasterEntry> StreamingService::make_entry()
    const {
  return std::make_unique<MasterEntry>(cluster_, options_.service.api);
}

StreamingService::MasterEntry& StreamingService::ensure_entry_locked(
    const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(name, make_entry()).first;
  }
  return *it->second;
}

void StreamingService::train_model(const std::string& name,
                                   const sparksim::WorkloadSpec& workload,
                                   std::size_t iterations) {
  std::unique_lock reg(registry_mutex_);
  MasterEntry& entry = ensure_entry_locked(name);
  std::unique_lock master(entry.mutex);
  (void)entry.model.train_offline(workload, iterations);
  std::scoped_lock state(state_mutex_);
  entry.blob.reset();
  scope_seeds_[name] =
      std::make_shared<const std::string>(checkpoint_to_string(entry.model));
}

void StreamingService::load_model(const std::string& name, std::istream& is) {
  std::unique_lock reg(registry_mutex_);
  MasterEntry& entry = ensure_entry_locked(name);
  std::unique_lock master(entry.mutex);
  load_checkpoint(is, entry.model);
  std::scoped_lock state(state_mutex_);
  entry.blob.reset();
  scope_seeds_[name] =
      std::make_shared<const std::string>(checkpoint_to_string(entry.model));
}

void StreamingService::load_model_file(const std::string& name,
                                       const std::string& path) {
  std::unique_lock reg(registry_mutex_);
  MasterEntry& entry = ensure_entry_locked(name);
  std::unique_lock master(entry.mutex);
  load_checkpoint_file(path, entry.model);
  std::scoped_lock state(state_mutex_);
  entry.blob.reset();
  scope_seeds_[name] =
      std::make_shared<const std::string>(checkpoint_to_string(entry.model));
}

void StreamingService::set_scope_seed(const std::string& base,
                                      std::shared_ptr<const std::string> blob) {
  std::scoped_lock state(state_mutex_);
  scope_seeds_[base] = std::move(blob);
}

bool StreamingService::has_model(const std::string& name) const {
  std::shared_lock reg(registry_mutex_);
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> StreamingService::loaded_models() const {
  std::shared_lock reg(registry_mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

core::DeepCat& StreamingService::master(const std::string& name) {
  std::shared_lock reg(registry_mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("model '" + name + "' is not resident");
  }
  return it->second->model;
}

StreamingService::MasterEntry& StreamingService::resolve_entry(
    const std::string& name) {
  {
    std::shared_lock reg(registry_mutex_);
    if (const auto it = entries_.find(name); it != entries_.end()) {
      return *it->second;
    }
  }
  std::unique_lock reg(registry_mutex_);
  if (const auto it = entries_.find(name); it != entries_.end()) {
    return *it->second;
  }
  if (runner_) {
    // Test-runner mode never touches a real master; admit any name.
    auto entry = make_entry();
    entry->stub = true;
    return *entries_.emplace(name, std::move(entry)).first->second;
  }
  const std::optional<std::string> base = scope_base_of(name);
  if (!registry_ && !base) {
    throw std::runtime_error("unknown model '" + name +
                             "' (no registry configured)");
  }
  if (registry_) {
    if (const auto version = registry_->latest_version(name)) {
      evict_idle_locked();
      auto entry = make_entry();
      registry_->load_into(name, *version, entry->model);
      return *entries_.emplace(name, std::move(entry)).first->second;
    }
    if (!base) {
      throw std::runtime_error("unknown model '" + name +
                               "': no published version in the registry");
    }
  }
  // Scoped-key fork: no published version under the scoped key, so start
  // the scoped model from its base — the base's latest published version
  // if the registry has one, else the base's genesis seed blob. Both are
  // fixed bytes, so the fork is identical on every shard/thread layout.
  if (registry_) {
    if (const auto version = registry_->latest_version(*base)) {
      evict_idle_locked();
      auto entry = make_entry();
      registry_->load_into(*base, *version, entry->model);
      return *entries_.emplace(name, std::move(entry)).first->second;
    }
  }
  std::shared_ptr<const std::string> seed;
  {
    std::scoped_lock state(state_mutex_);
    if (const auto it = scope_seeds_.find(*base); it != scope_seeds_.end()) {
      seed = it->second;
    }
  }
  if (!seed) {
    throw std::runtime_error("unknown model '" + name + "': base model '" +
                             *base +
                             "' has no published version and is not loaded");
  }
  evict_idle_locked();
  auto entry = make_entry();
  checkpoint_from_string(*seed, entry->model);
  return *entries_.emplace(name, std::move(entry)).first->second;
}

void StreamingService::evict_idle_locked() {
  std::scoped_lock state(state_mutex_);
  const std::size_t cap = std::max<std::size_t>(1, options_.max_loaded_models);
  while (entries_.size() >= cap) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second->in_flight != 0) continue;
      if (victim == entries_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything busy: soft cap
    (void)merge_entry_locked(*victim->second);
    if (victim->second->dirty && registry_ && !victim->second->stub) {
      // Learned state survives eviction as a new registry version.
      (void)registry_->publish(victim->first, victim->second->model);
    }
    entries_.erase(victim);
    if (obs_evictions_ != nullptr) obs_evictions_->add(1);
  }
}

void StreamingService::complete_failed(const TuningRequest& request,
                                       const std::string& error,
                                       const CompletionCallback& on_done) {
  SessionReport report;
  report.id = request.id;
  report.workload = request.workload;
  report.cluster = request.cluster;
  report.model = request.model;
  if (request.scope != TuneScope::kGlobal) {
    report.scope = to_string(request.scope);
  }
  report.ok = false;
  report.error = error;
  StreamReport stream_report;
  {
    std::scoped_lock state(state_mutex_);
    record_metrics_locked(report, scoped_model_key(request));
    stream_report = {std::move(report), 0, next_sequence_++};
    if (!on_done) {
      completed_.push_back(std::move(stream_report));
      completion_cv_.notify_all();
      return;
    }
    completion_cv_.notify_all();
  }
  // Callback outside the lock: the front end re-enters its own queues.
  on_done(std::move(stream_report));
}

void StreamingService::set_warm_index(
    std::shared_ptr<const retrieval::ExperienceIndex> index) {
  std::scoped_lock state(state_mutex_);
  warm_index_ = std::move(index);
}

bool StreamingService::has_warm_index() const {
  std::scoped_lock state(state_mutex_);
  return warm_index_ != nullptr && !warm_index_->empty();
}

std::optional<std::string> StreamingService::warm_error(
    const TuningRequest& request) const {
  if (request.warm_k <= 0) return std::nullopt;
  if (!has_warm_index()) {
    return "warm request '" + request.id +
           "' but no experience index is loaded";
  }
  return std::nullopt;
}

void StreamingService::resolve_warm(TuningRequest& request,
                                    const retrieval::ExperienceIndex& index) {
  const auto retrieval_span = options_.service.obs.scope("retrieval");
  const sparksim::HiBenchCase* hibench = nullptr;
  try {
    hibench = &sparksim::hibench_case(request.workload);
  } catch (const std::out_of_range&) {
    // The experience index embeds batch (HiBench) cases only; a warm
    // streaming request has nothing to retrieve against.
    throw std::invalid_argument(
        "warm retrieval is unavailable for non-batch workload '" +
        request.workload + "'");
  }
  const sparksim::HiBenchCase& c = *hibench;
  const std::vector<retrieval::Neighbor> neighbors = index.query_case(
      c, static_cast<std::size_t>(request.warm_k), retrieval::Metric::kCosine);
  request.warm_actions.clear();
  request.warm_actions.reserve(neighbors.size());
  for (const retrieval::Neighbor& nb : neighbors) {
    const auto& action = index.entries()[nb.entry].best_action;
    request.warm_actions.emplace_back(action.begin(), action.end());
  }
  if (obs_warm_requests_ != nullptr) obs_warm_requests_->add(1);
  if (obs_warm_hits_ != nullptr) obs_warm_hits_->add(neighbors.size());
}

void StreamingService::submit(TuningRequest request) {
  submit(std::move(request), CompletionCallback{});
}

void StreamingService::submit(TuningRequest request,
                              CompletionCallback on_done) {
  if (request.warm_k > 0 && request.warm_actions.empty()) {
    std::shared_ptr<const retrieval::ExperienceIndex> index;
    {
      std::scoped_lock state(state_mutex_);
      index = warm_index_;
    }
    if (index == nullptr || index->empty()) {
      // Direct-API callers get a failed report; the wire transports
      // precheck warm_error() and emit a typed ERR frame instead.
      complete_failed(request,
                      "warm request but no experience index is loaded",
                      on_done);
      return;
    }
    try {
      resolve_warm(request, *index);
    } catch (const std::exception& e) {
      complete_failed(request, e.what(), on_done);
      return;
    }
  }
  MasterEntry* entry = nullptr;
  try {
    // Scope-keyed routing: a non-global request resolves (and, on first
    // use, forks) the scoped model derived from the requested name.
    entry = &resolve_entry(scoped_model_key(request));
  } catch (const std::exception& e) {
    complete_failed(request, e.what(), on_done);
    return;
  }

  std::shared_ptr<const std::string> blob;
  const rl::RdperReplay* master_pools = nullptr;
  std::uint64_t epoch = 0;
  std::uint64_t sequence = 0;
  try {
    std::scoped_lock state(state_mutex_);
    if (!entry->blob && !runner_) {
      // First admission of this epoch: serialize the frozen master once;
      // every session until the next flush clones from this shared blob.
      std::shared_lock master(entry->mutex);
      entry->blob = std::make_shared<const std::string>(
          checkpoint_to_string(entry->model));
      if (obs_snapshots_ != nullptr) obs_snapshots_->add(1);
    }
    blob = entry->blob;
    epoch = entry->epoch;
    if (!runner_) {
      master_pools = dynamic_cast<const rl::RdperReplay*>(
          entry->model.tuner().replay());
    }
    sequence = next_sequence_++;
    entry->last_used = sequence;
    ++in_flight_;
    ++entry->in_flight;
    if (obs_queue_depth_ != nullptr) {
      obs_queue_depth_->set(static_cast<double>(in_flight_));
    }
  } catch (const std::exception& e) {
    complete_failed(request, e.what(), on_done);
    return;
  }

  if (obs_admitted_ != nullptr) obs_admitted_->add(1);
  obs::Tracer* tracer = options_.service.obs.tracer;
  std::uint64_t request_span = 0;
  if (tracer != nullptr) {
    // Traced requests parent under the transport's span (the front end's
    // per-connection span) when one was stamped; untraced requests keep
    // the historical root so legacy trace structures are unchanged.
    const std::uint64_t parent =
        (!request.trace_id.empty() && request.server_parent_span != 0)
            ? request.server_parent_span
            : options_.service.obs.trace_parent;
    request_span = tracer->begin_span("request", parent);
  }
  const bool timed =
      options_.reply_timings && tracer != nullptr && !request.trace_id.empty();
  const std::uint64_t t_submit = timed ? tracer->clock().now_ns() : 0;

  (void)pool_.submit([this, entry, blob = std::move(blob), master_pools,
                      epoch, sequence, request_span, tracer, timed, t_submit,
                      request = std::move(request),
                      on_done = std::move(on_done)] {
    SessionReport report;
    const std::uint64_t t_start = timed ? tracer->clock().now_ns() : 0;
    {
      // Session spans (and the tuner spans beneath) parent on the request
      // span; the api copy carries the parent id across the pool thread.
      const auto session_span =
          options_.service.obs.with_parent(request_span).scope("session");
      if (runner_) {
        report = runner_(request);
      } else {
        core::DeepCatApiOptions api = options_.service.api;
        api.tuner.obs.trace_parent = session_span.id();
        // Session clones don't append convergence series: the master's
        // fine-tune losses are the model's trajectory; a clone's would
        // flood the rings with per-session noise.
        api.tuner.obs.series = nullptr;
        report = run_session(*blob, api, request, master_pools, &entry->mutex);
      }
    }
    const std::uint64_t t_done = timed ? tracer->clock().now_ns() : 0;
    report.model = request.model;
    if (request.scope != TuneScope::kGlobal) {
      report.scope = to_string(request.scope);
    }
    if (!request.trace_id.empty()) {
      report.trace_id = request.trace_id;
      report.server_span = trace_server_span(request.trace_id, request.id);
    }
    if (timed) {
      StageTimings t;
      t.decode_ns = request.decode_ns;
      t.queue_ns = t_start - t_submit;
      t.session_ns = t_done - t_start;
      report.timings = t;
    }
    // End the request span BEFORE on_complete: on_complete releases
    // waiters (wait_completed / flush), and anyone it wakes may export the
    // trace immediately — the span must already be closed by then.
    if (tracer != nullptr) tracer->end_span(request_span);
    on_complete(*entry, request, std::move(report), epoch, sequence, on_done);
  });
}

void StreamingService::on_complete(MasterEntry& entry,
                                   const TuningRequest& request,
                                   SessionReport report, std::uint64_t epoch,
                                   std::uint64_t sequence,
                                   const CompletionCallback& on_done) {
  StreamReport stream_report;
  obs::Tracer* tracer = options_.service.obs.tracer;
  const std::uint64_t t_merge0 =
      (report.timings && tracer != nullptr) ? tracer->clock().now_ns() : 0;
  {
    std::scoped_lock state(state_mutex_);
    if (report.ok && !report.new_transitions.empty()) {
      entry.pending.push_back({request.id, request.seed, request.workload,
                               sequence, report.new_transitions});
    }
    record_metrics_locked(report, scoped_model_key(request));
    if (report.timings && tracer != nullptr) {
      report.timings->merge_ns = tracer->clock().now_ns() - t_merge0;
    }
    stream_report = {std::move(report), epoch, sequence};
    if (!on_done) completed_.push_back(std::move(stream_report));
    --in_flight_;
    --entry.in_flight;
    if (obs_queue_depth_ != nullptr) {
      obs_queue_depth_->set(static_cast<double>(in_flight_));
    }
    completion_cv_.notify_all();
  }
  // The in-flight decrement happens BEFORE the callback runs, so a caller
  // observing idle() after its last callback knows the service is settled.
  if (on_done) on_done(std::move(stream_report));
}

bool StreamingService::idle() const {
  std::scoped_lock state(state_mutex_);
  return in_flight_ == 0;
}

std::size_t StreamingService::in_flight() const {
  std::scoped_lock state(state_mutex_);
  return in_flight_;
}

void StreamingService::record_metrics_locked(const SessionReport& report,
                                             const std::string& key) {
  totals_.record(report);
  if (!report.ok) {
    if (obs_sessions_failed_ != nullptr) obs_sessions_failed_->add(1);
    return;
  }
  if (obs_sessions_ok_ != nullptr) obs_sessions_ok_->add(1);
  if (obs_rec_seconds_ != nullptr) {
    obs_rec_seconds_->observe(report.report.total_recommendation_seconds());
  }
  if (auto* series = options_.service.obs.series) {
    // Convergence history (state lock held, so appends are ordered):
    // per-evaluation recommendation cost, running best session reward per
    // model key, and shift-recovery outcomes (-1 = never recovered).
    for (const auto& step : report.report.steps) {
      series->append("stream.rec_cost", step.recommendation_seconds);
    }
    double& best = best_reward_
                       .try_emplace(key, report.mean_reward())
                       .first->second;
    best = std::max(best, report.mean_reward());
    series->append("model." + key + ".best_reward", best);
    if (report.report.stream.has_value()) {
      for (const auto& shift : report.report.stream->shifts) {
        series->append("stream.shift_recovery_evals",
                       shift.recovered
                           ? static_cast<double>(shift.recovery_evals)
                           : -1.0);
      }
    }
  }
}

std::optional<StreamReport> StreamingService::poll_completed() {
  std::scoped_lock state(state_mutex_);
  if (completed_.empty()) return std::nullopt;
  StreamReport report = std::move(completed_.front());
  completed_.pop_front();
  return report;
}

std::optional<StreamReport> StreamingService::wait_completed() {
  std::unique_lock state(state_mutex_);
  completion_cv_.wait(
      state, [this] { return !completed_.empty() || in_flight_ == 0; });
  if (completed_.empty()) return std::nullopt;
  StreamReport report = std::move(completed_.front());
  completed_.pop_front();
  return report;
}

std::size_t StreamingService::merge_entry_locked(MasterEntry& entry) {
  if (entry.pending.empty()) return 0;
  const auto merge_span = options_.service.obs.scope("merge");
  if (obs_merges_ != nullptr) obs_merges_->add(1);
  if (entry.stub) {
    // No real master behind a test-runner entry; the epoch still advances
    // so transcripts exercise the model-epoch contract.
    totals_.record_merge(0, 0);
    entry.pending.clear();
    ++entry.epoch;
    entry.blob.reset();
    return 0;
  }
  // Canonical merge order — ascending (id, seed, workload), never arrival
  // order — makes the merged master a pure function of the request set.
  // Admission order breaks ties, so equal keys from one submitter (a
  // batch) merge identically for any thread count.
  std::sort(entry.pending.begin(), entry.pending.end(),
            [](const PendingExperience& a, const PendingExperience& b) {
              return std::tie(a.id, a.seed, a.workload, a.sequence) <
                     std::tie(b.id, b.seed, b.workload, b.sequence);
            });
  std::size_t merged = 0;
  std::size_t tuned = 0;
  {
    std::unique_lock master(entry.mutex);
    rl::ReplayBuffer* replay = entry.model.tuner().replay();
    if (replay != nullptr) {
      for (auto& pending : entry.pending) {
        for (auto& t : pending.transitions) {
          replay->add(std::move(t));
          ++merged;
        }
      }
      if (options_.master_update_steps > 0 &&
          entry.model.tuner().has_agent()) {
        // Continuous master update: bounded fine-tune on the refreshed
        // pools, driven by the master's own checkpointed RNG stream.
        tuned = entry.model.tuner().agent().fine_tune(
            *replay, entry.model.tuner().rng(), options_.master_update_steps);
        if (obs_fine_tune_steps_ != nullptr) obs_fine_tune_steps_->add(tuned);
      }
    }
  }
  totals_.record_merge(merged, tuned);
  if (obs_merged_transitions_ != nullptr) {
    obs_merged_transitions_->add(merged);
  }
  entry.pending.clear();
  ++entry.epoch;
  entry.blob.reset();
  entry.dirty = true;
  return merged;
}

std::size_t StreamingService::flush() {
  const auto flush_span = options_.service.obs.scope("flush");
  std::shared_lock reg(registry_mutex_);
  std::unique_lock state(state_mutex_);
  completion_cv_.wait(state, [this] { return in_flight_ == 0; });
  if (obs_flushes_ != nullptr) obs_flushes_->add(1);
  std::size_t merged = 0;
  for (auto& [name, entry] : entries_) merged += merge_entry_locked(*entry);
  return merged;
}

std::uint64_t StreamingService::model_epoch(const std::string& name) const {
  std::shared_lock reg(registry_mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("model '" + name + "' is not resident");
  }
  std::scoped_lock state(state_mutex_);
  return it->second->epoch;
}

std::string StreamingService::checkpoint_of(const std::string& name) {
  std::shared_lock reg(registry_mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("model '" + name + "' is not resident");
  }
  std::shared_lock master(it->second->mutex);
  return checkpoint_to_string(it->second->model);
}

obs::BuildInfo StreamingService::build_info() const {
  if (options_.build_info) return *options_.build_info;
  return obs::current_build_info(pool_.size());
}

ServiceMetrics StreamingService::metrics() const {
  std::scoped_lock state(state_mutex_);
  return totals_.snapshot();
}

BatchResult serve_batch(StreamingService& service,
                        const std::vector<TuningRequest>& requests) {
  const ServiceMetrics before = service.metrics();
  for (const TuningRequest& request : requests) service.submit(request);
  BatchResult result;
  result.reports.reserve(requests.size());
  while (auto report = service.wait_completed()) {
    result.reports.push_back(std::move(*report));
  }
  (void)service.flush();
  // Admission sequence = request order (one submitting thread).
  std::sort(result.reports.begin(), result.reports.end(),
            [](const StreamReport& a, const StreamReport& b) {
              return a.sequence < b.sequence;
            });
  SessionMetrics metrics;
  for (const StreamReport& report : result.reports) {
    metrics.record(report.session);
  }
  metrics.record_barrier(before, service.metrics());
  result.metrics = metrics.snapshot();
  return result;
}

// ---- wire payloads --------------------------------------------------------

namespace {

std::string strip_newline(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

}  // namespace

std::string stream_error_payload(const std::string& message) {
  return "{\"error\":\"" + json_escape(message) + "\"}";
}

std::string stream_reply_payload(const StreamReport& report) {
  std::ostringstream os;
  write_report_jsonl(os, report.session, report.model_epoch);
  return strip_newline(std::move(os).str());
}

std::optional<std::string> stat_payload_error(const std::string& payload) {
  if (payload.empty()) return std::nullopt;
  try {
    (void)parse_flat_json(payload);
    return std::nullopt;
  } catch (const std::exception& e) {
    return std::string(e.what());
  }
}

}  // namespace deepcat::service
