#include "rjms/pass_order.h"

#include <algorithm>

namespace ps::rjms {
namespace {

// Insertion moves allowed per queue element before a full std::sort.
// On the full-Curie Fig-8 cells about 2% of passes exceed it.
constexpr std::size_t kMovesPerEntry = 4;

}  // namespace

bool restore_pass_order(std::vector<PendingEntry>& queue) {
  if (queue.size() < 2) return false;
  const std::size_t budget = kMovesPerEntry * queue.size();
  std::size_t moved = 0;
  for (auto it = queue.begin() + 1; it != queue.end(); ++it) {
    if (!runs_before(*it, *(it - 1))) continue;
    // [begin, it) is sorted and *it belongs strictly before *(it - 1).
    auto slot = std::upper_bound(queue.begin(), it - 1, *it, runs_before);
    moved += static_cast<std::size_t>(it - slot);
    if (moved > budget) {
      std::sort(queue.begin(), queue.end(), runs_before);
      return true;
    }
    PendingEntry entry = *it;
    std::move_backward(slot, it, it + 1);
    *slot = entry;
  }
  return false;
}

}  // namespace ps::rjms
