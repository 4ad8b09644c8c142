#include "rjms/priority.h"

#include "util/check.h"

namespace ps::rjms {

PriorityCalculator::PriorityCalculator(PriorityWeights weights, std::int64_t total_cores)
    : weights_(weights), total_cores_(total_cores) {
  PS_CHECK_MSG(total_cores_ > 0, "priority: total_cores must be positive");
  PS_CHECK_MSG(weights_.age_saturation > 0, "priority: age_saturation must be positive");
}

double PriorityCalculator::compute(const Job& job, sim::Time now,
                                   const FairShare* fairshare) const {
  double fs_factor =
      fairshare != nullptr ? fairshare->factor(job.request.user, now) : 1.0;
  return combine(now - job.request.submit_time, size_factor(job.request.requested_cores),
                 fs_factor);
}

}  // namespace ps::rjms
