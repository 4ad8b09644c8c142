// Pending-queue ordering for the controller's full scheduling pass.
//
// The pass runs jobs by priority descending, then submit time ascending,
// then job id ascending. Job ids are unique, so this is a strict total
// order: a queue has exactly one sorted arrangement, and any correct sort
// produces it. That is what lets the pass re-sort adaptively (starting
// from the previous pass's order) without moving a golden fingerprint.
//
// Each queue entry carries its own sort key and the static inputs of the
// priority formula, so ordering a pass never looks a job up by id.
#pragma once

#include <cstdint>
#include <vector>

#include "rjms/job.h"
#include "sim/time.h"

namespace ps::rjms {

struct PendingEntry {
  double priority = 0.0;        ///< this pass's multifactor priority
  sim::Time submit_time = 0;
  JobId id = 0;
  Job* job = nullptr;           ///< stable: the job table never erases
  double size_factor = 0.0;     ///< static input of the priority formula
  std::uint32_t user_slot = 0;  ///< dense index of the job's user
};

/// The pass order (see the file comment).
inline bool runs_before(const PendingEntry& a, const PendingEntry& b) noexcept {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
  return a.id < b.id;
}

/// Puts `queue` in pass order. The queue is expected to hold the previous
/// pass's order with refreshed priorities and new submissions at the tail:
/// ages advance together, so most entries stay in place. An insertion pass
/// (binary-searched slot, one block move per misplaced entry) repairs that
/// in about linear time; once it has moved more than four entries per
/// queue element it falls back to std::sort. Returns true when it fell
/// back.
bool restore_pass_order(std::vector<PendingEntry>& queue);

}  // namespace ps::rjms
