#include "service/service.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>

#include "service/checkpoint.hpp"

namespace deepcat::service {

// ---- ModelRegistry ------------------------------------------------------

ModelRegistry::ModelRegistry(std::string directory)
    : dir_(std::move(directory)) {
  std::filesystem::create_directories(dir_);
}

std::string ModelRegistry::path_for(const std::string& name,
                                    std::uint32_t version) const {
  return dir_ + "/" + name + ".v" + std::to_string(version) + ".dckp";
}

std::optional<std::uint32_t> ModelRegistry::latest_version(
    const std::string& name) const {
  const std::string prefix = name + ".v";
  const std::string suffix = ".dckp";
  std::optional<std::uint32_t> latest;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.size() <= prefix.size() + suffix.size() ||
        file.compare(0, prefix.size(), prefix) != 0 ||
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string mid =
        file.substr(prefix.size(), file.size() - prefix.size() - suffix.size());
    std::uint32_t v = 0;
    const auto [ptr, parse_ec] =
        std::from_chars(mid.data(), mid.data() + mid.size(), v);
    if (parse_ec != std::errc{} || ptr != mid.data() + mid.size()) continue;
    if (!latest || v > *latest) latest = v;
  }
  return latest;
}

std::uint32_t ModelRegistry::publish(const std::string& name,
                                     core::DeepCat& model) {
  const std::uint32_t version = latest_version(name).value_or(0) + 1;
  save_checkpoint_file(path_for(name, version), model);
  return version;
}

void ModelRegistry::load_into(const std::string& name, std::uint32_t version,
                              core::DeepCat& model) const {
  load_checkpoint_file(path_for(name, version), model);
}

// ---- SessionMetrics -----------------------------------------------------

SessionMetrics::SessionMetrics() {
  totals_.rec_buckets.assign(rec_cost_bucket_edges().size() + 1, 0);
}

void SessionMetrics::record(const SessionReport& report) {
  if (!report.ok) {
    ++totals_.sessions_failed;
    return;
  }
  ++totals_.sessions_served;
  totals_.evaluations_paid += report.report.steps.size();
  totals_.evaluation_seconds += report.report.total_evaluation_seconds();
  const double rec = report.report.total_recommendation_seconds();
  totals_.recommendation_seconds += rec;
  rec_costs_.add(rec);
  // Fixed-edge bucket counts for the global view's quantiles: bucket i
  // counts rec <= edges[i] (first match), mirroring obs::Histogram.
  const std::vector<double>& edges = rec_cost_bucket_edges();
  const auto it = std::lower_bound(edges.begin(), edges.end(), rec);
  ++totals_.rec_buckets[static_cast<std::size_t>(it - edges.begin())];
  reward_sum_ += report.mean_reward();
  speedup_sum_ += report.report.speedup_over_default();
}

void SessionMetrics::record_merge(std::size_t transitions,
                                  std::size_t fine_tune_steps) {
  ++totals_.merges;
  totals_.merged_transitions += transitions;
  totals_.fine_tune_steps += fine_tune_steps;
}

void SessionMetrics::record_barrier(const ServiceMetrics& before,
                                    const ServiceMetrics& after) {
  totals_.merges += after.merges - before.merges;
  totals_.merged_transitions +=
      after.merged_transitions - before.merged_transitions;
  totals_.fine_tune_steps += after.fine_tune_steps - before.fine_tune_steps;
}

ServiceMetrics SessionMetrics::snapshot() const {
  ServiceMetrics m = totals_;
  if (m.sessions_served > 0) {
    m.p50_recommendation_seconds = rec_costs_.quantile(0.50);
    m.p95_recommendation_seconds = rec_costs_.quantile(0.95);
    m.mean_session_reward =
        reward_sum_ / static_cast<double>(m.sessions_served);
    m.mean_speedup = speedup_sum_ / static_cast<double>(m.sessions_served);
  }
  return m;
}

}  // namespace deepcat::service
