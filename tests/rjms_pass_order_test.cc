// Pass-order fence: the full pass keeps its pending queue in the documented
// order (priority descending, submit time ascending, id ascending) however
// it gets there. The adaptive re-sort must agree with a brute-force sort on
// every pass — deep queues, many fair-share users, heavy ties, tail
// submissions between passes, and a reversed tail that overruns the
// insertion budget and takes the std::sort fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "cluster/curie.h"
#include "rjms/controller.h"
#include "rjms/pass_order.h"
#include "util/rng.h"

namespace ps::rjms {
namespace {

// The documented comparator, spelled independently of runs_before.
bool reference_before(double pa, sim::Time sa, JobId a, double pb, sim::Time sb, JobId b) {
  return std::make_tuple(-pa, sa, a) < std::make_tuple(-pb, sb, b);
}

std::vector<JobId> ids_of(const std::vector<PendingEntry>& queue) {
  std::vector<JobId> ids;
  for (const PendingEntry& entry : queue) ids.push_back(entry.id);
  return ids;
}

std::vector<JobId> reference_order(std::vector<PendingEntry> queue) {
  std::sort(queue.begin(), queue.end(), [](const PendingEntry& a, const PendingEntry& b) {
    return reference_before(a.priority, a.submit_time, a.id, b.priority, b.submit_time, b.id);
  });
  return ids_of(queue);
}

PendingEntry entry(double priority, sim::Time submit, JobId id) {
  PendingEntry e;
  e.priority = priority;
  e.submit_time = submit;
  e.id = id;
  return e;
}

TEST(RestorePassOrder, MatchesReferenceOnTiedRandomQueues) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<PendingEntry> queue;
    auto n = rng.uniform_int(0, 300);
    for (JobId id = 0; id < n; ++id) {
      // Few distinct priorities and submit times: most comparisons tie.
      queue.push_back(entry(static_cast<double>(rng.uniform_int(0, 3)) * 0.25,
                            rng.uniform_int(0, 4), rng.uniform_int(0, 1) ? id : n * 2 - id));
    }
    auto expected = reference_order(queue);
    restore_pass_order(queue);
    ASSERT_EQ(ids_of(queue), expected) << "trial " << trial;
  }
}

TEST(RestorePassOrder, NearlySortedQueueStaysOnTheInsertionPath) {
  // The previous pass's order with a few swapped neighbours, plus a tail of
  // fresh submissions that rank near the bottom: well inside the budget.
  std::vector<PendingEntry> queue;
  for (JobId id = 0; id < 1000; ++id) queue.push_back(entry(1000.0 - id, 0, id));
  for (std::size_t i = 10; i + 1 < queue.size(); i += 97) {
    std::swap(queue[i].priority, queue[i + 1].priority);
  }
  for (JobId id = 1000; id < 1010; ++id) {
    queue.push_back(entry(5.0 + static_cast<double>(id - 1000) * 0.1, 5, id));
  }
  auto expected = reference_order(queue);
  EXPECT_FALSE(restore_pass_order(queue));
  EXPECT_EQ(ids_of(queue), expected);
}

TEST(RestorePassOrder, ReversedQueueFallsBackToSort) {
  std::vector<PendingEntry> queue;
  for (JobId id = 0; id < 500; ++id) {
    queue.push_back(entry(static_cast<double>(id / 3), id % 7, id));
  }
  auto expected = reference_order(queue);
  EXPECT_TRUE(restore_pass_order(queue));
  EXPECT_EQ(ids_of(queue), expected);
}

// --- the controller's full pass ------------------------------------------

constexpr std::int32_t kCoresPerNode = 16;  // Curie thin nodes

workload::JobRequest make_request(JobId id, std::int32_t user, std::int64_t cores,
                                  sim::Duration runtime, sim::Time submit) {
  workload::JobRequest request;
  request.id = id;
  request.submit_time = submit;
  request.user = user;
  request.requested_cores = cores;
  request.base_runtime = runtime;
  request.requested_walltime = runtime;
  return request;
}

/// Checks, at every job start, that the start is the head of the pending
/// queue and that the queue equals a brute-force sort of freshly computed
/// priorities (PriorityCalculator with the per-user fair-share factor).
/// When the pass ordered two or more entries, each entry's stored priority
/// must also be bit-equal to the fresh one; a lone job is never ordered, so
/// its entry keeps a stale priority and those starts are only counted.
class PassOrderChecker : public ControllerObserver {
 public:
  PassOrderChecker(const Controller& controller, const sim::Simulator& simulator)
      : controller_(controller),
        simulator_(simulator),
        calc_(controller.config().priority, controller.cluster().topology().total_cores()) {}

  void on_job_start(const Job& job) override {
    sim::Time now = simulator_.now();
    const std::vector<PendingEntry>& entries = controller_.pending_entries();
    ASSERT_FALSE(entries.empty());
    const bool ordered = entries.size() >= 2;
    std::vector<JobId> queue;
    std::vector<PendingEntry> reference;
    for (const PendingEntry& pending : entries) {
      const Job& queued = controller_.job(pending.id);
      double priority = calc_.compute(queued, now, &controller_.fairshare());
      if (ordered) {
        ASSERT_EQ(std::memcmp(&priority, &pending.priority, sizeof priority), 0)
            << "job " << pending.id << " at " << now;
      }
      queue.push_back(pending.id);
      reference.push_back(entry(priority, queued.request.submit_time, pending.id));
    }
    EXPECT_EQ(queue.front(), job.id()) << "at " << now;
    EXPECT_EQ(queue, reference_order(reference)) << "at " << now;
    max_depth_ = std::max(max_depth_, queue.size());
    if (!ordered) ++lone_starts_;
    ++checked_;
  }

  std::size_t checked() const { return checked_; }
  std::size_t max_depth() const { return max_depth_; }
  std::size_t lone_starts() const { return lone_starts_; }

 private:
  const Controller& controller_;
  const sim::Simulator& simulator_;
  PriorityCalculator calc_;
  std::size_t checked_ = 0;
  std::size_t max_depth_ = 0;
  std::size_t lone_starts_ = 0;
};

TEST(ControllerPassOrder, EveryPassMatchesBruteForceSort) {
  sim::Simulator simulator;
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(1);
  const std::int32_t nodes = cl.topology().total_nodes();
  ControllerConfig config;
  config.fairshare_enabled = true;
  config.fairshare_half_life = sim::seconds(600);
  // Ages saturate after a minute, so old jobs of one user and width tie on
  // priority and fall through to submit time, then id.
  config.priority.age_saturation = sim::seconds(60);
  Controller controller(simulator, cl, config);
  PassOrderChecker checker(controller, simulator);
  controller.add_observer(&checker);

  // Every job is wider than half the machine, so exactly one runs at a time
  // and every start comes from a full pass. Runtimes are whole seconds and
  // the opening burst lands at t = 0, so passes fall on whole seconds; the
  // later submissions never do, so none races a job end into a quick start.
  util::Rng rng(20150525);
  auto width = [&] {
    // Three widths only: heavy ties on the size factor.
    return static_cast<std::int64_t>(nodes / 2 + 1 + 10 * rng.uniform_int(0, 2)) *
           kCoresPerNode;
  };
  JobId next_id = 1;
  std::size_t submitted = 0;
  auto submit_at = [&](sim::Time t, std::int32_t user, std::int64_t cores) {
    workload::JobRequest request =
        make_request(next_id++, user, cores, sim::seconds(rng.uniform_int(1, 4)), t);
    simulator.schedule_at(t, [&controller, request] { controller.submit(request); });
    ++submitted;
  };
  for (int i = 0; i < 300; ++i) {
    submit_at(0, static_cast<std::int32_t>(rng.uniform_int(0, 39)), width());
  }
  // A trickle of tail submissions, several sharing one instant.
  for (sim::Time t = 250; t < sim::seconds(500); t += sim::seconds(1)) {
    for (int k = 0, n = static_cast<int>(rng.uniform_int(0, 2)); k < n; ++k) {
      submit_at(t, static_cast<std::int32_t>(rng.uniform_int(0, 39)), width());
    }
  }
  // A reversed tail: fresh users (fair-share factor 1), one instant, each
  // asking for more cores than the one before, so each outranks every
  // earlier arrival — far more insertion moves than the pass budget allows.
  for (int i = 0; i < 100; ++i) {
    submit_at(sim::seconds(200) + 500, 1000 + i,
              static_cast<std::int64_t>(nodes / 2) * kCoresPerNode + 1 + 7 * i);
  }

  simulator.run();
  EXPECT_EQ(controller.stats().started, submitted);
  EXPECT_EQ(checker.checked(), submitted);
  EXPECT_GE(checker.max_depth(), 300u);
  // The queue drains to one job at the end: that pass orders nothing.
  EXPECT_GE(checker.lone_starts(), 1u);
  EXPECT_EQ(controller.pending_count(), 0u);
}

}  // namespace
}  // namespace ps::rjms
