// The governor's window-price memo and single-query admission walk.
//
// OnlineGovernor::optimal_window_freq is memoized per cap id for one
// reservation-book version, and compute_admission_freq collects the future
// powercap windows once per admission instead of once per frequency. Both
// must be invisible: every verdict equals a test-local copy of the original
// walk (one book query per frequency, every window priced from scratch),
// and under audit_admission_cache every memo hit is re-priced brute-force
// inside the governor.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "apps/calibrated_apps.h"
#include "cluster/curie.h"
#include "core/online.h"
#include "util/rng.h"

namespace ps::core {
namespace {

constexpr double kWattsEpsilon = 1e-6;

rjms::ControllerConfig fcfs_config() {
  rjms::ControllerConfig config;
  config.priority.age = 0.0;
  config.priority.size = 0.0;
  config.priority.fair_share = 0.0;
  return config;
}

/// The window price from scratch: switch-offs overlapping the window, then
/// the ladder from the top.
std::optional<cluster::FreqIndex> reference_price(const rjms::Controller& controller,
                                                  const OnlineGovernor& governor,
                                                  const rjms::Reservation& cap) {
  const cluster::PowerModel& pm = controller.cluster().power_model();
  double n_off = 0.0;
  double bonus_part = 0.0;
  for (const rjms::Reservation& so : controller.reservations().all()) {
    if (so.kind != rjms::ReservationKind::SwitchOff || !so.overlaps(cap.start, cap.end)) {
      continue;
    }
    auto n = static_cast<double>(so.nodes.size());
    n_off += n;
    bonus_part += so.planned_saving_watts - n * (pm.idle_watts() - pm.down_watts());
  }
  double active = static_cast<double>(controller.cluster().topology().total_nodes()) - n_off;
  for (cluster::FreqIndex f = governor.max_allowed_freq() + 1;
       f-- > governor.min_allowed_freq();) {
    double watts = active * pm.frequencies().watts(f) + n_off * pm.down_watts() +
                   pm.infra_watts_all_on() - bonus_part;
    if (watts <= cap.watts + kWattsEpsilon) return f;
    if (f == governor.min_allowed_freq()) break;
  }
  return std::nullopt;
}

/// The per-frequency admission walk as it stood before the single-query
/// collection: one powercap overlap query per frequency, every overlapped
/// future window priced from scratch.
std::optional<cluster::FreqIndex> reference_walk(const rjms::Controller& controller,
                                                 const OnlineGovernor& governor,
                                                 AdmissionMode mode, sim::Time now,
                                                 double node_count,
                                                 sim::Duration walltime, double degmin) {
  const rjms::ReservationBook& book = controller.reservations();
  const cluster::PowerModel& pm = controller.cluster().power_model();
  double cap_now = book.cap_at(now);
  for (cluster::FreqIndex f = governor.max_allowed_freq() + 1;
       f-- > governor.min_allowed_freq();) {
    double factor = governor.degradation().factor(f, degmin);
    auto eff_walltime = static_cast<sim::Duration>(
        std::llround(static_cast<double>(walltime) * factor));
    sim::Time span_end = now + eff_walltime;
    double delta = node_count * (pm.frequencies().watts(f) - pm.idle_watts());
    if (controller.cluster().watts() + delta > cap_now + kWattsEpsilon) continue;

    bool fits = true;
    book.for_each_overlapping(
        rjms::ReservationKind::Powercap, now, span_end, [&](const rjms::Reservation& cap) {
          if (!fits || cap.start <= now) return;
          if (mode == AdmissionMode::Projection) {
            if (governor.projected_watts_at(cap) + delta > cap.watts + kWattsEpsilon) {
              fits = false;
            }
            return;
          }
          std::optional<cluster::FreqIndex> f_star =
              reference_price(controller, governor, cap);
          if (f_star.has_value()) {
            if (f > *f_star) fits = false;
          } else if (mode == AdmissionMode::PaperLiveStrict) {
            fits = false;
          } else if (f > governor.min_allowed_freq()) {
            fits = false;
          }
        });
    if (fits) return f;
  }
  return std::nullopt;
}

workload::JobRequest make_request(std::int64_t id, std::int64_t cores, sim::Duration runtime,
                                  sim::Duration walltime, std::string app = {}) {
  workload::JobRequest request;
  request.id = id;
  request.requested_cores = cores;
  request.base_runtime = runtime;
  request.requested_walltime = walltime;
  request.app = std::move(app);
  return request;
}

struct Scenario {
  Policy policy;
  AdmissionMode mode;
};

class WindowPriceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(WindowPriceTest, VerdictsMatchThePerFrequencyWalk) {
  sim::Simulator simulator;
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(1);  // 90 nodes
  rjms::Controller controller(simulator, cl, fcfs_config());
  PowercapConfig pc;
  pc.policy = GetParam().policy;
  pc.admission = GetParam().mode;
  pc.audit_admission_cache = true;
  OnlineGovernor governor(controller, pc);
  controller.set_governor(&governor);
  controller.add_observer(&governor);

  const cluster::PowerModel& pm = cl.power_model();
  const std::int32_t nodes = cl.topology().total_nodes();
  const std::int32_t cores_per_node = cl.topology().cores_per_node();
  const double idle = cl.watts();
  const double busy = idle + static_cast<double>(nodes) * (pm.max_watts() - pm.idle_watts());
  util::Rng rng(20150525);

  // Daily 11:00-13:00 caps for a week, from below the idle floor (no
  // frequency fits) to above the busy peak (every frequency fits).
  for (int day = 0; day < 7; ++day) {
    sim::Time start = sim::hours(24 * day + 11);
    controller.add_powercap_reservation(start, start + sim::hours(2),
                                        rng.uniform(0.9 * idle, 1.05 * busy));
  }
  // Some load, so the live check and Projection's persisting power matter.
  for (std::int64_t id = 1; id <= 12; ++id) {
    controller.submit(make_request(id, cores_per_node * rng.uniform_int(2, 12),
                                   sim::minutes(rng.uniform_int(30, 600)),
                                   sim::minutes(rng.uniform_int(600, 900))));
  }

  // Switch-off reservations straight into the book: more than the book's
  // linear-scan limit, so pricing runs the tree path.
  std::vector<rjms::ReservationId> switch_offs;
  auto add_switch_off = [&] {
    rjms::Reservation so;
    so.kind = rjms::ReservationKind::SwitchOff;
    so.start = sim::minutes(rng.uniform_int(0, 7 * 24 * 60));
    so.end = so.start + sim::minutes(rng.uniform_int(30, 600));
    auto first = static_cast<cluster::NodeId>(rng.uniform_int(0, nodes - 12));
    auto count = static_cast<cluster::NodeId>(rng.uniform_int(2, 12));
    for (cluster::NodeId n = first; n < first + count; ++n) so.nodes.push_back(n);
    so.planned_saving_watts = static_cast<double>(count) * (pm.idle_watts() - pm.down_watts()) +
                              rng.uniform(0.0, 50.0);
    switch_offs.push_back(controller.reservations().add(std::move(so)));
  };
  for (int i = 0; i < 24; ++i) add_switch_off();

  std::vector<std::string> apps = {""};
  for (const apps::AppModel& app : apps::measured_apps()) apps.push_back(app.name());

  std::size_t probes = 0;
  std::size_t admitted = 0;
  for (int round = 0; round < 60; ++round) {
    simulator.run_until(simulator.now() + sim::minutes(rng.uniform_int(0, 240)));
    // Churn the book between admissions: the memo must follow its version.
    for (int k = 0, n = static_cast<int>(rng.uniform_int(0, 3)); k < n; ++k) {
      if (switch_offs.size() > 18 && rng.uniform_int(0, 1) == 0) {
        std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(switch_offs.size()) - 1));
        ASSERT_TRUE(controller.reservations().remove(switch_offs[pick]));
        switch_offs.erase(switch_offs.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        add_switch_off();
      }
    }
    for (int k = 0; k < 20; ++k) {
      rjms::Job job;
      auto width = static_cast<std::int32_t>(rng.uniform_int(1, nodes));
      job.request = make_request(1000 + probes, std::int64_t{width} * cores_per_node,
                                 sim::minutes(10),
                                 sim::minutes(rng.uniform_int(1, 48 * 60)),
                                 apps[static_cast<std::size_t>(rng.uniform_int(
                                     0, static_cast<std::int64_t>(apps.size()) - 1))]);
      std::vector<cluster::NodeId> alloc(static_cast<std::size_t>(width));
      for (std::int32_t i = 0; i < width; ++i) alloc[static_cast<std::size_t>(i)] = i;

      std::optional<cluster::FreqIndex> expected =
          reference_walk(controller, governor, pc.admission, simulator.now(),
                         static_cast<double>(width), job.request.requested_walltime,
                         governor.degmin_for(job));
      std::optional<rjms::PowerGovernor::Admission> got = governor.admit(job, alloc);
      ASSERT_EQ(got.has_value(), expected.has_value())
          << "round " << round << " width " << width << " walltime "
          << job.request.requested_walltime;
      if (got) {
        EXPECT_EQ(got->freq, *expected) << "round " << round;
        ++admitted;
      }
      ++probes;
    }
  }
  const OnlineGovernor::AdmissionCacheStats& stats = governor.admission_cache_stats();
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, probes);  // both verdicts occur
  if (pc.admission != AdmissionMode::Projection) {
    // Projection never prices a window; the PaperLive modes reuse prices
    // and audited every reuse.
    EXPECT_GT(stats.window_prices, 0u);
    EXPECT_GT(stats.window_price_hits, 0u);
    EXPECT_GE(stats.audits, stats.window_price_hits);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, WindowPriceTest,
    ::testing::Values(Scenario{Policy::Dvfs, AdmissionMode::PaperLive},
                      Scenario{Policy::Dvfs, AdmissionMode::PaperLiveStrict},
                      Scenario{Policy::Dvfs, AdmissionMode::Projection},
                      Scenario{Policy::Mix, AdmissionMode::PaperLive},
                      Scenario{Policy::Mix, AdmissionMode::PaperLiveStrict},
                      Scenario{Policy::Mix, AdmissionMode::Projection}));

TEST(WindowPriceMemo, FollowsTheBookVersion) {
  sim::Simulator simulator;
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(1);
  rjms::Controller controller(simulator, cl, fcfs_config());
  PowercapConfig pc;
  pc.policy = Policy::Dvfs;
  pc.audit_admission_cache = true;
  OnlineGovernor governor(controller, pc);
  const cluster::PowerModel& pm = cl.power_model();

  // A cap between the all-idle and all-busy powers: some middle frequency.
  double mid_busy = cl.watts() + 0.5 * cl.topology().total_nodes() *
                                     (pm.max_watts() - pm.idle_watts());
  rjms::ReservationId cap_id =
      controller.add_powercap_reservation(sim::hours(1), sim::hours(2), mid_busy);
  const rjms::Reservation* cap = controller.reservations().find(cap_id);
  ASSERT_NE(cap, nullptr);
  std::optional<cluster::FreqIndex> before = governor.optimal_window_freq(*cap);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(governor.optimal_window_freq(*cap), before);
  const OnlineGovernor::AdmissionCacheStats& stats = governor.admission_cache_stats();
  EXPECT_EQ(stats.window_prices, 1u);
  EXPECT_EQ(stats.window_price_hits, 1u);
  EXPECT_EQ(stats.audits, 1u);

  // Half the machine switched off over the window: the rest may run faster.
  rjms::Reservation so;
  so.kind = rjms::ReservationKind::SwitchOff;
  so.start = 0;
  so.end = sim::hours(3);
  for (cluster::NodeId n = 0; n < cl.topology().total_nodes() / 2; ++n) so.nodes.push_back(n);
  so.planned_saving_watts = static_cast<double>(so.nodes.size()) *
                            (pm.idle_watts() - pm.down_watts());
  rjms::ReservationId so_id = controller.reservations().add(std::move(so));
  cap = controller.reservations().find(cap_id);
  std::optional<cluster::FreqIndex> with_off = governor.optimal_window_freq(*cap);
  EXPECT_EQ(with_off, reference_price(controller, governor, *cap));
  ASSERT_TRUE(with_off.has_value());
  EXPECT_GT(*with_off, *before);
  EXPECT_EQ(stats.window_prices, 2u);

  ASSERT_TRUE(controller.reservations().remove(so_id));
  cap = controller.reservations().find(cap_id);
  EXPECT_EQ(governor.optimal_window_freq(*cap), before);
  EXPECT_EQ(stats.window_prices, 3u);
}

}  // namespace
}  // namespace ps::core
