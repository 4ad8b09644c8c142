#include "traced_replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>

#include "cluster/curie.h"
#include "core/fingerprint.h"
#include "core/powercap_manager.h"
#include "core/submission_pump.h"
#include "metrics/summary.h"
#include "metrics/timeseries.h"
#include "util/check.h"

// --- allocation counting -----------------------------------------------------
//
// Replacement global operator new: one thread-local increment per
// allocation. Only the plain and array forms are replaced; the aligned forms
// keep the library defaults, which pair with their own deletes.

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace psbench {

using namespace ps;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static const char* span_name(SpanName name) noexcept {
  switch (name) {
    case kReplay: return "bench.replay";
    case kNextChunk: return "workload.next_chunk";
    case kAdmit: return "core.online.admit";
    case kKnownRejected: return "core.online.known_rejected";
    case kPlan: return "core.offline.plan";
    case kRunUntil: return "sim.run_until";
    case kSummarize: return "metrics.summarize";
    case kFingerprint: return "core.fingerprint";
    case kSpanNameCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) {
  spans_.reserve(capacity);
  stack_.reserve(64);
}

void Tracer::clear() noexcept {
  spans_.clear();
  stack_.clear();
}

std::int32_t Tracer::begin(SpanName name) {
  PS_CHECK_MSG(spans_.size() < spans_.capacity() && stack_.size() < stack_.capacity(),
               "tracer: span buffer full");
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.allocs = t_allocs;
  span.start_ns = now_ns();
  auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  span.allocs = t_allocs - span.allocs;
  PS_CHECK(!stack_.empty() && stack_.back() == index);
  stack_.pop_back();
}

void LayerTotals::add(const LayerTotals& o) {
  for (int i = 0; i < kSpanNameCount; ++i) {
    incl_ns[i] += o.incl_ns[i];
    self_ns[i] += o.self_ns[i];
    calls[i] += o.calls[i];
    self_allocs[i] += o.self_allocs[i];
    incl_allocs[i] += o.incl_allocs[i];
  }
  admit_granted += o.admit_granted;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  plans += o.plans;
  events_fired += o.events_fired;
  events_scheduled += o.events_scheduled;
  jobs_submitted += o.jobs_submitted;
  samples += o.samples;
  stats.full_passes += o.stats.full_passes;
  stats.quick_attempts += o.stats.quick_attempts;
  stats.submit_batches += o.stats.submit_batches;
  stats.backfill_starts += o.stats.backfill_starts;
  stats.selector_fast_fails += o.stats.selector_fast_fails;
  stats.admission_fast_fails += o.stats.admission_fast_fails;
}

std::vector<std::uint64_t> LayerTotals::counts() const {
  std::vector<std::uint64_t> out;
  for (int i = 0; i < kSpanNameCount; ++i) {
    out.push_back(calls[i]);
    out.push_back(self_allocs[i]);
  }
  for (std::uint64_t v :
       {admit_granted, cache_hits, cache_misses, plans, events_fired,
        events_scheduled, jobs_submitted, samples, stats.full_passes,
        stats.quick_attempts, stats.submit_batches, stats.backfill_starts,
        stats.selector_fast_fails, stats.admission_fast_fails}) {
    out.push_back(v);
  }
  return out;
}

namespace {

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, SpanName name) : tracer_(tracer), index_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

class TracedSource final : public workload::JobSource {
 public:
  TracedSource(workload::JobSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool next_chunk(sim::Time until, std::vector<workload::JobRequest>& out) override {
    Scope scope(tracer_, kNextChunk);
    return inner_.next_chunk(until, out);
  }
  sim::Time last_submit_hint() override { return inner_.last_submit_hint(); }
  void rewind() override { inner_.rewind(); }

 private:
  workload::JobSource& inner_;
  Tracer& tracer_;
};

class TracedGovernor final : public rjms::PowerGovernor {
 public:
  TracedGovernor(rjms::PowerGovernor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<Admission> admit(const rjms::Job& job,
                                 const std::vector<cluster::NodeId>& nodes) override {
    Scope scope(tracer_, kAdmit);
    std::optional<Admission> admission = inner_.admit(job, nodes);
    if (admission) ++granted_;
    return admission;
  }
  double max_walltime_stretch() const override { return inner_.max_walltime_stretch(); }
  bool admission_known_rejected(const rjms::Job& job, std::int32_t width) const override {
    Scope scope(tracer_, kKnownRejected);
    return inner_.admission_known_rejected(job, width);
  }

  std::uint64_t granted() const noexcept { return granted_; }

 private:
  rjms::PowerGovernor& inner_;
  Tracer& tracer_;
  std::uint64_t granted_ = 0;
};

/// Folds `spans` into the span fields of `totals`.
void aggregate(const std::vector<Span>& spans, LayerTotals& totals) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::uint64_t> child_allocs(spans.size(), 0);
  // Children always follow their parent in the buffer, so one reverse pass
  // has every child folded in before its parent is read.
  for (std::size_t i = spans.size(); i-- > 0;) {
    const Span& span = spans[i];
    std::int64_t dur = span.end_ns - span.start_ns;
    totals.incl_ns[span.name] += dur;
    totals.self_ns[span.name] += dur - child_ns[i];
    totals.calls[span.name] += 1;
    totals.incl_allocs[span.name] += span.allocs;
    totals.self_allocs[span.name] += span.allocs - child_allocs[i];
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += dur;
      child_allocs[static_cast<std::size_t>(span.parent)] += span.allocs;
    }
  }
}

/// The replay proper; its locals (cluster, simulator, controller, recorder)
/// are torn down before it returns, inside the caller's root span, exactly
/// as run_scenario's are inside its caller's timing.
void replay_body(const core::ScenarioConfig& config, Tracer& tracer, TracedRun& run) {
  // The wiring below follows core::run_scenario step for step; only the
  // spans and the two wrappers are added.
  PS_CHECK_MSG(config.racks >= 1, "scenario: racks >= 1");
  cluster::Cluster cl = cluster::curie::make_scaled_cluster(config.racks);
  sim::Simulator simulator;
  rjms::Controller controller(simulator, cl, config.controller);
  core::PowercapManager manager(controller, config.powercap);
  TracedGovernor governor(manager.governor(), tracer);
  if (config.powercap.policy != core::Policy::None) controller.set_governor(&governor);
  metrics::Recorder recorder(controller);

  workload::GeneratorParams params = config.custom_workload
                                         ? *config.custom_workload
                                         : workload::params_for(config.profile);
  std::shared_ptr<workload::JobSource> inner = config.job_source;
  if (!inner) {
    std::vector<workload::JobRequest> jobs =
        config.trace_jobs ? *config.trace_jobs : workload::generate(params, config.seed);
    inner = std::make_shared<workload::VectorJobSource>(std::move(jobs));
  }
  TracedSource source(*inner, tracer);
  source.rewind();
  double width_scale =
      static_cast<double>(config.racks) / static_cast<double>(cluster::curie::kRacks);

  sim::Duration horizon = config.horizon;
  bool horizon_from_hint = false;
  if (horizon <= 0) {
    if (config.trace_jobs || config.job_source) {
      horizon_from_hint = true;
      sim::Time last_submit = source.last_submit_hint();
      PS_CHECK_MSG(last_submit >= 0, "traced replay: unbounded job source");
      horizon = last_submit + sim::hours(1);
    } else {
      horizon = params.span;
    }
  }

  run.result.max_cluster_watts = cl.power_model().max_cluster_watts();
  run.result.total_cores = cl.topology().total_cores();
  if (!config.cap_windows.empty() && config.powercap.policy != core::Policy::None) {
    std::vector<core::PlanWindow> advance;
    for (const core::CapWindow& window : config.cap_windows) {
      PS_CHECK_MSG(window.announce < 0,
                   "traced replay: announce-typed cap windows are not wired");
      sim::Time wstart = window.start >= 0 ? window.start : (horizon - window.duration) / 2;
      sim::Time wend = window.duration > 0 ? wstart + window.duration : sim::kTimeMax;
      double watts = manager.lambda_to_watts(window.lambda);
      run.result.windows.push_back({wstart, wend, watts});
      advance.push_back({wstart, wend, watts});
    }
    Scope plan(tracer, kPlan);
    manager.add_powercap_schedule(advance);
  } else if (config.cap_lambda < 1.0 && config.powercap.policy != core::Policy::None) {
    sim::Time wstart = config.cap_start >= 0 ? config.cap_start
                                             : (horizon - config.cap_duration) / 2;
    sim::Time wend = wstart + config.cap_duration;
    double watts = manager.lambda_to_watts(config.cap_lambda);
    {
      Scope plan(tracer, kPlan);
      manager.add_powercap(wstart, wend, watts);
    }
    run.result.windows.push_back({wstart, wend, watts});
  }
  if (!run.result.windows.empty()) {
    run.result.cap_watts = run.result.windows.front().watts;
    run.result.cap_start = run.result.windows.front().start;
    run.result.cap_end = run.result.windows.front().end;
  }

  sim::Duration chunk = config.submit_chunk > 0
                            ? config.submit_chunk
                            : (config.job_source ? core::kDefaultStreamChunk : 0);
  core::SubmissionPump pump(simulator, controller, source, horizon, chunk, width_scale);
  pump.prime();

  simulator.set_default_band(sim::EventBand::kNormal);
  {
    Scope loop(tracer, kRunUntil);
    simulator.run_until(horizon);
  }
  if (horizon_from_hint) {
    PS_CHECK_MSG(pump.fully_drained(), "traced replay: job source outlived its hint");
  }
  recorder.sample(horizon);

  double drift = cl.watts() - cl.audit_watts();
  PS_CHECK_MSG(drift < 1e-6 && drift > -1e-6, "incremental power accounting drifted");

  run.result.plans = manager.release_plans();
  if (!run.result.plans.empty()) {
    run.result.has_plan = true;
    run.result.plan = run.result.plans.front();
  }
  {
    Scope summary(tracer, kSummarize);
    run.result.summary = metrics::summarize(recorder, controller, 0, horizon);
  }
  run.result.stats = controller.stats();
  run.result.samples = recorder.samples();
  {
    Scope digest(tracer, kFingerprint);
    run.fingerprint = core::fingerprint(run.result);
  }
  run.totals.admit_granted = governor.granted();
  const core::OnlineGovernor::AdmissionCacheStats& cache =
      manager.governor().admission_cache_stats();
  run.totals.cache_hits = cache.hits;
  run.totals.cache_misses = cache.misses;
  run.totals.plans = run.result.plans.size();
  run.totals.events_fired = simulator.fired_count();
  run.totals.events_scheduled = simulator.scheduled_count();
  run.totals.jobs_submitted = pump.submitted();
  run.totals.samples = run.result.samples.size();
  run.totals.stats = run.result.stats;
}

}  // namespace

TracedRun traced_replay(const core::ScenarioConfig& config, Tracer& tracer) {
  tracer.clear();
  TracedRun run;
  const std::int64_t start = now_ns();
  std::int32_t root = tracer.begin(kReplay);
  replay_body(config, tracer, run);
  tracer.end(root);
  run.wall_ns = now_ns() - start;
  aggregate(tracer.spans(), run.totals);
  return run;
}

void append_chrome_events(const std::vector<Span>& spans, int tid,
                          const std::string& label, std::string& events) {
  char line[256];
  for (const Span& span : spans) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"allocs\":%llu}},\n",
                  span_name(span.name), label.c_str(), tid,
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<unsigned long long>(span.allocs));
    events += line;
  }
}

}  // namespace psbench
