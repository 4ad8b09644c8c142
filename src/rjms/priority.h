// Multifactor job prioritization (paper §IV-A: "the usual backfilling may
// be enriched with multifactor priorities such as job age and job size or
// even more sophisticated features like fair-sharing").
//
// priority = w_age * age_factor + w_size * size_factor + w_fs * fs_factor
// with each factor in [0, 1], mirroring SLURM's priority/multifactor plugin.
#pragma once

#include <algorithm>
#include <cstdint>

#include "rjms/fairshare.h"
#include "rjms/job.h"
#include "sim/time.h"

namespace ps::rjms {

struct PriorityWeights {
  double age = 1000.0;
  double size = 500.0;
  double fair_share = 2000.0;
  /// Wait time at which the age factor saturates to 1 (SLURM default 7d;
  /// shorter here so it matters within 5 h replays).
  sim::Duration age_saturation = sim::hours(24);
};

class PriorityCalculator {
 public:
  PriorityCalculator(PriorityWeights weights, std::int64_t total_cores);

  /// Priority of a pending job at `now`. `fairshare` may be null (factor 1).
  double compute(const Job& job, sim::Time now, const FairShare* fairshare) const;

  /// Size factor of a job asking for `cores`: fixed for the job's life, so
  /// the scheduling pass computes it once at submission.
  double size_factor(std::int64_t cores) const noexcept {
    // SLURM's job_size factor favours larger jobs (helps them beat the
    // starvation that backfilling of small jobs would otherwise cause).
    return std::min(1.0, static_cast<double>(cores) / static_cast<double>(total_cores_));
  }

  /// The multifactor formula from its inputs. compute() and the controller's
  /// pass both go through it, so their priorities are bit-equal.
  double combine(sim::Duration wait, double size_factor, double fs_factor) const noexcept {
    double age_factor =
        std::min(1.0, static_cast<double>(std::max<sim::Duration>(wait, 0)) /
                          static_cast<double>(weights_.age_saturation));
    return weights_.age * age_factor + weights_.size * size_factor +
           weights_.fair_share * fs_factor;
  }

  const PriorityWeights& weights() const noexcept { return weights_; }

 private:
  PriorityWeights weights_;
  std::int64_t total_cores_;
};

}  // namespace ps::rjms
