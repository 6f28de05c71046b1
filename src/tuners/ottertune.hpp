// OtterTune baseline (Van Aken et al., SIGMOD 2017): Gaussian-process
// surrogate + Expected Improvement acquisition, seeded through workload
// mapping over an offline observation repository. Each online step refits
// the GP on mapped + observed data (the recommendation-time cost the paper
// measures at ~43 s total) and maximizes EI over a candidate pool.
#pragma once

#include <cstdint>
#include <memory>

#include "gp/gp_regressor.hpp"
#include "gp/workload_map.hpp"
#include "tuners/tuner.hpp"

namespace deepcat::tuners {

struct OtterTuneOptions {
  /// Length-scale grid for per-step GP hyperparameter selection by log
  /// marginal likelihood — the model (re)training the paper's Fig. 7
  /// charges to OtterTune's recommendation time.
  std::vector<double> length_scale_grid = {0.6, 1.0, 1.8, 3.0};
  double noise_var = 0.05;
  double ei_xi = 0.01;
  std::size_t candidate_pool = 800;   ///< random EI candidates per step
  std::size_t local_candidates = 150; ///< perturbations around the incumbent
  double local_sigma = 0.08;
  std::size_t max_mapped_samples = 1200;  ///< GP budget from the repository
  std::uint64_t seed = 777;

  /// Observability hand-off; attached to every GP the tuner fits.
  obs::Sink obs{};
};

class OtterTuneTuner final : public OnlineTuner {
 public:
  explicit OtterTuneTuner(OtterTuneOptions options);

  [[nodiscard]] std::string name() const override { return "OtterTune"; }

  /// Offline stage: samples `num_samples` random configurations on `env`
  /// and stores (config, metrics, runtime) observations under
  /// `workload_id` — the "thousands of offline samples" the paper feeds
  /// OtterTune for a fair comparison (§4.4).
  void collect_observations(sparksim::TuningEnvironment& env,
                            const std::string& workload_id,
                            std::size_t num_samples);

  /// Direct repository access for custom seeding in tests/ablations.
  [[nodiscard]] gp::WorkloadRepository& repository() noexcept {
    return repository_;
  }

  TuningReport tune(sparksim::TuningEnvironment& env, int num_steps) override;

 private:
  /// Picks the next configuration by maximizing EI under a freshly fitted
  /// GP; returns the chosen normalized action of length `action_dim` and
  /// adds the modeled cost of the GP retrains + candidate scans (the
  /// dominant recommendation cost of Fig. 7) to `modeled_seconds`.
  std::vector<double> recommend(
      std::size_t action_dim, const std::vector<gp::Observation>& mapped,
      const std::vector<gp::Observation>& observed, double best_time,
      std::span<const double> incumbent, double& modeled_seconds);

  OtterTuneOptions options_;
  common::Rng rng_;
  gp::WorkloadRepository repository_;
};

}  // namespace deepcat::tuners
