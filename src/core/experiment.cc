#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/obs_publish.h"
#include "core/powercap_manager.h"
#include "core/submission_pump.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ps::core {

ScenarioResult run_scenario(const ScenarioConfig& config) {
  PS_TRACE_SPAN("core.run_scenario");
  PS_CHECK_MSG(config.racks >= 1, "scenario: racks >= 1");

  cluster::Cluster cl = cluster::curie::make_scaled_cluster(config.racks);
  sim::Simulator simulator;  // default band: kSetup, until the replay starts
  rjms::Controller controller(simulator, cl, config.controller);
  PowercapManager manager(controller, config.powercap);
  metrics::Recorder recorder(controller);

  // Workload: every shape streams through a JobSource. In-memory workloads
  // (trace_jobs, generated profiles) wrap in a VectorJobSource — generated
  // at full-Curie calibration; the pump scales widths chunk by chunk so a
  // scaled-down run keeps the same shape.
  workload::GeneratorParams params = config.custom_workload
                                         ? *config.custom_workload
                                         : workload::params_for(config.profile);
  std::shared_ptr<workload::JobSource> source = config.job_source;
  if (!source) {
    std::vector<workload::JobRequest> jobs =
        config.trace_jobs ? *config.trace_jobs : workload::generate(params, config.seed);
    source = std::make_shared<workload::VectorJobSource>(std::move(jobs));
  }
  source->rewind();
  double width_scale =
      static_cast<double>(config.racks) / static_cast<double>(cluster::curie::kRacks);

  sim::Duration horizon = config.horizon;
  bool horizon_from_hint = false;
  if (horizon <= 0) {
    if (config.trace_jobs || config.job_source) {
      horizon_from_hint = true;
      // Traces carry their own span: last submission plus a drain hour.
      // The source bounds it without materializing the trace (SWF header
      // or a one-pass pre-scan; vectors answer from their sorted tail).
      sim::Time last_submit = source->last_submit_hint();
      PS_CHECK_MSG(last_submit >= 0,
                   "scenario: job source cannot bound the replay horizon; "
                   "set config.horizon explicitly");
      horizon = last_submit + sim::hours(1);
    } else {
      horizon = params.span;
    }
  }

  // Cap reservations ("made in the beginning of the workload replay").
  ScenarioResult result;
  result.max_cluster_watts = cl.power_model().max_cluster_watts();
  result.total_cores = cl.topology().total_cores();
  if (!config.cap_windows.empty() && config.powercap.policy != Policy::None) {
    // Multi-window schedule: advance windows are planned jointly in one
    // incremental planner pass; announce-typed windows register mid-replay.
    // Policy::None skips the schedule entirely, exactly like the
    // single-window gate below, so a None baseline is comparable across
    // both config styles. result.windows is ordered to match the plan
    // registration order — advance windows (config order) first, then
    // announce-typed windows by announce time — so windows[i] and plans[i]
    // always describe the same window.
    struct Announced {
      sim::Time announce = 0;
      ScenarioResult::Window window;
    };
    std::vector<PlanWindow> advance;
    std::vector<Announced> announced;
    for (const CapWindow& window : config.cap_windows) {
      sim::Time start = window.start >= 0 ? window.start
                                          : (horizon - window.duration) / 2;
      sim::Time end =
          window.duration > 0 ? start + window.duration : sim::kTimeMax;
      double watts = manager.lambda_to_watts(window.lambda);
      if (window.announce >= 0) {
        // An announcement past the horizon never happens: no reservation,
        // no plan, no listed window.
        if (window.announce > horizon) continue;
        announced.push_back({window.announce, {start, end, watts}});
      } else {
        result.windows.push_back({start, end, watts});
        advance.push_back({start, end, watts});
      }
    }
    manager.add_powercap_schedule(advance);
    std::stable_sort(announced.begin(), announced.end(),
                     [](const Announced& a, const Announced& b) {
                       return a.announce < b.announce;
                     });
    for (const Announced& entry : announced) {
      result.windows.push_back(entry.window);
      const ScenarioResult::Window& w = entry.window;
      simulator.schedule_at(entry.announce, [&manager, w] {
        manager.add_powercap(w.start, w.end, w.watts);
      });
    }
  } else if (config.cap_lambda < 1.0 && config.powercap.policy != Policy::None) {
    sim::Time start = config.cap_start >= 0
                          ? config.cap_start
                          : (horizon - config.cap_duration) / 2;
    sim::Time end = start + config.cap_duration;
    double watts = manager.lambda_to_watts(config.cap_lambda);
    manager.add_powercap(start, end, watts);
    result.windows.push_back({start, end, watts});
  }
  if (!result.windows.empty()) {
    result.cap_watts = result.windows.front().watts;
    result.cap_start = result.windows.front().start;
    result.cap_end = result.windows.front().end;
  }

  // Replay: the pump submits at trace timestamps, pulling chunks as the
  // clock reaches them (jobs past the horizon are never pulled at all).
  sim::Duration chunk = config.submit_chunk > 0
                            ? config.submit_chunk
                            : (config.job_source ? kDefaultStreamChunk : 0);
  SubmissionPump pump(simulator, controller, *source, horizon, chunk, width_scale);
  pump.prime();

  // From here every scheduled event is a runtime event: it must sort after
  // the pump at equal timestamps, exactly like events scheduled mid-run
  // sorted after the preloaded submissions.
  simulator.set_default_band(sim::EventBand::kNormal);
  simulator.run_until(horizon);
  if (horizon_from_hint) {
    // An explicit config.horizon may truncate a trace on purpose; a
    // hint-derived one may not — leftover jobs mean the hint lied (e.g. a
    // stale MaxSubmitTime header) and the replay silently lost work.
    PS_CHECK_MSG(pump.fully_drained(),
                 "job source outlived its last_submit_hint — stale or "
                 "under-reporting MaxSubmitTime header?");
  }
  recorder.sample(horizon);

  // Consistency audit: the incremental power accounting must agree with a
  // full recomputation after the whole run.
  double drift = cl.watts() - cl.audit_watts();
  PS_CHECK_MSG(drift < 1e-6 && drift > -1e-6, "incremental power accounting drifted");

  result.plans = manager.release_plans();  // manager is about to die: move
  if (!result.plans.empty()) {
    result.has_plan = true;
    result.plan = result.plans.front();
  }
  result.summary = metrics::summarize(recorder, controller, 0, horizon);
  result.stats = controller.stats();
  result.samples = recorder.release_samples();
  publish_replay_metrics(simulator, pump, manager);
  return result;
}

std::vector<CapWindow> make_daily_cap_windows(sim::Time start, std::int32_t days,
                                              sim::Duration window_start,
                                              sim::Duration window_end,
                                              double fraction) {
  PS_CHECK_MSG(days >= 0, "daily cap windows: days >= 0");
  PS_CHECK_MSG(window_start >= 0 && window_end > window_start &&
                   window_end <= sim::hours(24),
               "daily cap windows: 0 <= window_start < window_end <= 24h");
  std::vector<CapWindow> windows;
  windows.reserve(static_cast<std::size_t>(days));
  for (std::int32_t day = 0; day < days; ++day) {
    CapWindow window;
    window.lambda = fraction;
    window.start = start + sim::hours(24) * day + window_start;
    window.duration = window_end - window_start;
    window.announce = -1;  // advance windows: planned jointly at t = 0
    windows.push_back(window);
  }
  return windows;
}

}  // namespace ps::core
