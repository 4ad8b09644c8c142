// psbench — measures one benchmark workload of the powercap scheduler and
// prints one JSON result line (see perfbench/README.md).
//
//   psbench --workload fig8_curie|month_stream|serve_paced --seed N
//           --seconds S --trace 0|1 --work DIR --goldens FILE
//           --serve-bin PATH
//   psbench --pin --work DIR     print the pinned fingerprints (goldens.txt)
//   psbench --build-info         print the build this binary measures
//
// Untraced runs (--trace 0) time core::run_scenario and a ps-serve child
// and report the end-to-end metrics; traced runs (--trace 1) also replay
// through the benchmark's own traced assembly (traced_replay.h) and report
// the per-layer metrics. Every replay's fingerprint is checked against a
// pinned value; any mismatch fails the run.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/fingerprint.h"
#include "serve/protocol.h"
#include "traced_replay.h"
#include "util/spool.h"
#include "workload/job_source.h"
#include "workload/swf.h"
#include "workload/synthetic.h"

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#define PSBENCH_OPTIMIZED 0
#else
#define PSBENCH_OPTIMIZED 1
#endif

extern char** environ;

namespace {

using namespace ps;
using psbench::now_ns;

// --- inputs ------------------------------------------------------------------
//
// Every run replays the repository's canonical job traces, whose
// fingerprints goldens.txt pins: the Fig-8 profiles of seed 20150525 and the
// curie_month trace of seed 20111001. --seed varies how the jobs reach the
// program: the submission chunk of the replays and the publish jitter of the
// serve generator. Neither may move a fingerprint (chunked streaming and
// det-mode serving are bit-identical to a materialized replay by design), so
// every run is checked against the same pinned values. Deriving the traces
// themselves from --seed was measured and rejected: replay cost differs by up
// to 1.6x between trace seeds (perfbench/README.md), far more than a run
// affordable here can average out.

constexpr std::uint64_t kFig8Seed = 20150525;
constexpr std::uint64_t kMonthSeed = 20111001;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Submission chunk of a replay: `lo` to `hi` minutes, drawn from --seed.
sim::Duration chunk_for(std::uint64_t seed, std::int64_t lo, std::int64_t hi) {
  std::uint64_t state = seed;
  return sim::minutes(lo + static_cast<std::int64_t>(
                               splitmix64(state) % static_cast<std::uint64_t>(hi - lo + 1)));
}

struct Fig8Cell {
  const char* label;
  workload::Profile profile;
  core::Policy policy;
};

constexpr Fig8Cell kFig8Cells[] = {
    {"BigJob/MIX", workload::Profile::BigJob, core::Policy::Mix},
    {"BigJob/DVFS", workload::Profile::BigJob, core::Policy::Dvfs},
    {"BigJob/SHUT", workload::Profile::BigJob, core::Policy::Shut},
    {"MedianJob/MIX", workload::Profile::MedianJob, core::Policy::Mix},
    {"MedianJob/DVFS", workload::Profile::MedianJob, core::Policy::Dvfs},
    {"MedianJob/SHUT", workload::Profile::MedianJob, core::Policy::Shut},
    {"SmallJob/MIX", workload::Profile::SmallJob, core::Policy::Mix},
    {"SmallJob/DVFS", workload::Profile::SmallJob, core::Policy::Dvfs},
    {"SmallJob/SHUT", workload::Profile::SmallJob, core::Policy::Shut},
};
constexpr workload::Profile kFig8Profiles[] = {
    workload::Profile::BigJob, workload::Profile::MedianJob, workload::Profile::SmallJob};
constexpr double kFig8Lambda = 0.4;

constexpr int kServeBatchJobs = 64;
constexpr double kServeAccel = 240000.0;  // 28 simulated days in ~10 s
constexpr double kJitterMs = 10.0;        // publish jitter per document, from --seed
// A session is invalid when the generator fell behind (its p99 lateness
// above kLateLimitMs) or the backlog grew (more than kInboxDepthLimit
// documents still in the inbox when the generator finished). A single
// stalled document does not invalidate it: latency is timed from due
// times, so a late document never flatters the measurement.
constexpr double kLateLimitMs = 25.0;
constexpr std::size_t kInboxDepthLimit = 16;

constexpr int kSetupReps = 11;

// The replay workloads report their times at a reference core clock. The
// shared host's core clock drifts by up to a quarter over minutes, with the
// load of its other tenants; a probe loop of dependent multiply-adds (four
// cycles an iteration, touching no memory and no program code) is run
// before every timed repetition, and the fastest probe of the run gives the
// clock the fastest repetitions ran at. kReferenceProbeMs is the probe's
// time at 3 GHz.
constexpr int kProbeIterations = 1'000'000;
constexpr double kReferenceProbeMs = kProbeIterations * 4.0 / 3.0e6;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work;
  std::string goldens;
  std::string serve_bin;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run found: correctness, operation counts, metrics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "psbench: FAILED: %s\n", why.c_str());
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Wall time of `iterations` steps of a fixed integer loop that touches no
/// memory and no program code: it runs at the host core's clock.
double probe_ms(int iterations) {
  std::int64_t t0 = now_ns();
  std::uint64_t x = static_cast<std::uint64_t>(t0);
  for (int i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Fastest of ten long probes: the host core's speed at the end of a run.
double ref_loop_ms() {
  double best = std::numeric_limits<double>::infinity();
  for (int probe = 0; probe < 10; ++probe) best = std::min(best, probe_ms(10'000'000));
  return best;
}

// --- goldens -------------------------------------------------------------------

/// goldens.txt: "<workload> <item> <fingerprint hex>" lines.
class Goldens {
 public:
  explicit Goldens(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read goldens file " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string workload, item, digest;
      if (!(fields >> workload >> item >> digest)) {
        throw std::runtime_error("malformed goldens line: " + line);
      }
      pins_[workload + " " + item] = std::stoull(digest, nullptr, 16);
    }
  }

  std::uint64_t at(const std::string& workload, const std::string& item) const {
    auto it = pins_.find(workload + " " + item);
    if (it == pins_.end()) {
      throw std::runtime_error("no pinned fingerprint for " + workload + " " + item);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::uint64_t> pins_;
};

// --- set-up in child processes -------------------------------------------------
//
// Set-up runs in a forked child so neither its time nor its memory reaches
// the measuring process: peak RSS of the replaying process never includes
// set-up. Set-up time is the child's CPU time (user + sys, from wait4):
// its wall time also waits on page-cache writeback of the files earlier runs
// wrote, which spread it by up to 2x between runs.

struct ChildResult {
  std::vector<double> values;  ///< what the child reported through the pipe
  double cpu_s = 0;            ///< the child's user + sys CPU time
};

ChildResult run_in_child(const std::function<std::vector<double>()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      std::vector<double> values = fn();
      std::size_t bytes = values.size() * sizeof(double);
      if (write(fds[1], values.data(), bytes) != static_cast<ssize_t>(bytes)) code = 3;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "psbench: set-up failed: %s\n", error.what());
      code = 2;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  ChildResult result;
  double value = 0;
  while (read(fds[0], &value, sizeof value) == static_cast<ssize_t>(sizeof value)) {
    result.values.push_back(value);
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child failed");
  }
  result.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  return result;
}

std::vector<workload::JobRequest> fig8_jobs(workload::Profile profile, std::uint64_t seed) {
  return workload::generate(workload::params_for(profile), seed);
}

std::vector<workload::JobRequest> month_trace(std::uint64_t seed) {
  workload::ChunkedSyntheticSource source(workload::curie_month_params(), seed);
  return workload::materialize(source);
}

void write_swf(const std::string& path, const std::vector<workload::JobRequest>& jobs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  workload::swf::write(out, jobs);
  out.close();
  if (!out) throw std::runtime_error("short write to " + path);
}

/// The jobs of a written trace as every replay of it sees them: zero-runtime
/// jobs dropped, submit times rebased to 0.
std::vector<workload::JobRequest> load_trace(const std::string& path) {
  workload::swf::ParseOptions options;
  options.skip_zero_runtime = true;
  std::vector<workload::JobRequest> jobs = workload::swf::load_file(path, options);
  workload::swf::rebase_submit_times(jobs);
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const workload::JobRequest& a, const workload::JobRequest& b) {
                     return a.submit_time < b.submit_time;
                   });
  return jobs;
}

// --- scenario configs ----------------------------------------------------------

core::ScenarioConfig fig8_config(const Fig8Cell& cell,
                                 const std::vector<workload::JobRequest>& jobs,
                                 sim::Duration chunk) {
  core::ScenarioConfig config;
  config.trace_jobs = jobs;
  config.submit_chunk = chunk;
  // Generated profiles replay over the profile span, not a trace horizon.
  config.horizon = workload::params_for(cell.profile).span;
  config.racks = cluster::curie::kRacks;
  config.powercap.policy = cell.policy;
  config.cap_lambda = kFig8Lambda;
  return config;
}

core::ScenarioConfig month_config(const std::string& swf_path, sim::Duration chunk) {
  core::ScenarioConfig config;
  config.submit_chunk = chunk;
  config.racks = 2;
  config.powercap.policy = core::Policy::Mix;
  config.cap_windows =
      core::make_daily_cap_windows(0, 28, sim::hours(11), sim::hours(13), 0.5);
  workload::SwfStreamSource::Options options;
  options.parse.skip_zero_runtime = true;
  config.job_source = std::make_shared<workload::SwfStreamSource>(swf_path, options);
  return config;
}

/// The offline twin of the ps-serve command line psbench starts.
core::ScenarioConfig serve_config(const std::vector<workload::JobRequest>& jobs) {
  core::ScenarioConfig config;
  config.trace_jobs = jobs;
  config.racks = 2;
  config.powercap.policy = core::Policy::Mix;
  config.cap_lambda = 0.5;
  return config;
}

// --- per-layer metrics -----------------------------------------------------------

struct ServeLayer {
  double docs = 0, checkpoints = 0, journal_pruned = 0, backpressure_stalls = 0;
  double peak_queue = 0, cpu_user_s = 0, cpu_sys_s = 0, cpu_us_per_job = 0;
  double admit_p95_ms = 0, admit_p99_ms = 0, inbox_depth_end = 0, late_p99_ms = 0;
};

void add_layer_metrics(const psbench::LayerTotals& t, double generate_s,
                       double trace_overhead, double fail_frac, const ServeLayer& s,
                       std::vector<Metric>& out) {
  using namespace psbench;
  auto secs = [](std::int64_t ns) { return static_cast<double>(ns) / 1e9; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double admit_calls = count(t.calls[kAdmit]);
  const double lookups = count(t.cache_hits + t.cache_misses);
  const std::vector<Metric> metrics = {
      {"workload.generate_s", generate_s, "s"},
      {"workload.next_chunk_s", secs(t.incl_ns[kNextChunk]), "s"},
      {"workload.chunks", count(t.calls[kNextChunk]), "count"},
      {"workload.allocs", count(t.self_allocs[kNextChunk]), "count"},
      {"core.online.admit_s", secs(t.incl_ns[kAdmit] + t.incl_ns[kKnownRejected]), "s"},
      {"core.online.admit_calls", admit_calls, "count"},
      {"core.online.known_rejected_calls", count(t.calls[kKnownRejected]), "count"},
      {"core.online.admit_yield", ratio(count(t.admit_granted), admit_calls), "ratio"},
      {"core.online.cache_hit_ratio", ratio(count(t.cache_hits), lookups), "ratio"},
      {"core.online.cache_lookups", lookups, "count"},
      {"core.online.allocs", count(t.self_allocs[kAdmit] + t.self_allocs[kKnownRejected]),
       "count"},
      {"core.offline.plan_s", secs(t.incl_ns[kPlan]), "s"},
      {"core.offline.plans", count(t.plans), "count"},
      {"sim.run_self_s", secs(t.self_ns[kRunUntil]), "s"},
      {"sim.ns_per_event",
       ratio(static_cast<double>(t.incl_ns[kRunUntil]), count(t.events_fired)), "ns"},
      {"sim.events_fired", count(t.events_fired), "count"},
      {"sim.events_scheduled", count(t.events_scheduled), "count"},
      {"sim.run_allocs_per_job",
       ratio(count(t.incl_allocs[kRunUntil]), count(t.jobs_submitted)), "count"},
      {"rjms.full_passes", count(t.stats.full_passes), "count"},
      {"rjms.quick_attempts", count(t.stats.quick_attempts), "count"},
      {"rjms.submit_batches", count(t.stats.submit_batches), "count"},
      {"rjms.backfill_starts", count(t.stats.backfill_starts), "count"},
      {"rjms.selector_fast_fails", count(t.stats.selector_fast_fails), "count"},
      {"rjms.admission_fast_fails", count(t.stats.admission_fast_fails), "count"},
      {"metrics.samples", count(t.samples), "count"},
      {"metrics.summarize_s", secs(t.incl_ns[kSummarize]), "s"},
      {"metrics.fingerprint_s", secs(t.incl_ns[kFingerprint]), "s"},
      {"serve.docs", s.docs, "count"},
      {"serve.checkpoints", s.checkpoints, "count"},
      {"serve.journal_pruned", s.journal_pruned, "count"},
      {"serve.backpressure_stalls", s.backpressure_stalls, "count"},
      {"serve.peak_queue", s.peak_queue, "count"},
      {"serve.cpu_user_s", s.cpu_user_s, "s"},
      {"serve.cpu_sys_s", s.cpu_sys_s, "s"},
      {"serve.cpu_us_per_job", s.cpu_us_per_job, "us"},
      {"serve.admit_p95_ms", s.admit_p95_ms, "ms"},
      {"serve.admit_p99_ms", s.admit_p99_ms, "ms"},
      {"serve.inbox_depth_end", s.inbox_depth_end, "count"},
      {"loadgen.late_p99_ms", s.late_p99_ms, "ms"},
      {"bench.trace_overhead_frac", trace_overhead, "ratio"},
      {"bench.fail_frac", fail_frac, "ratio"},
      {"host.ref_loop_ms", ref_loop_ms(), "ms"},
  };
  out.insert(out.end(), metrics.begin(), metrics.end());
}

// --- exact-count self-check --------------------------------------------------------
//
// Counts must repeat exactly: across repetitions inside a run (checked by
// the caller) and across runs of the same input in one checkout (checked
// here against the file the first such run left behind).

void check_counts_across_runs(const Args& args, const std::vector<std::uint64_t>& counts,
                              Outcome& outcome) {
  std::string path = args.work + "/counts-" + args.workload + "-" +
                     std::to_string(args.seed) + ".txt";
  std::string text;
  for (std::uint64_t c : counts) text += std::to_string(c) + "\n";
  if (util::path_exists(path)) {
    if (util::read_file(path) != text) {
      outcome.fail("per-layer counts differ from an earlier run of the same seed (" +
                   path + "): program nondeterminism");
    }
    return;
  }
  util::write_file_atomic(path, text, /*durable=*/false);
}

// --- replay workloads ----------------------------------------------------------------

struct ReplayItem {
  std::string label;
  core::ScenarioConfig config;
  std::uint64_t golden = 0;
};

/// A replay's job source that stamps the wall and thread-CPU clocks each
/// time the submission pump pulls a chunk. The pulls fall at the same
/// simulated instants in every repetition of a replay, so they cut it into
/// segments of identical work that can be timed across repetitions.
class SegmentClock final : public workload::JobSource {
 public:
  explicit SegmentClock(std::shared_ptr<workload::JobSource> inner) : inner_(std::move(inner)) {
    stamps_.reserve(4096);
  }

  bool next_chunk(sim::Time until, std::vector<workload::JobRequest>& out) override {
    stamp();
    return inner_->next_chunk(until, out);
  }
  sim::Time last_submit_hint() override { return inner_->last_submit_hint(); }
  void rewind() override { inner_->rewind(); }

  struct Stamp {
    std::int64_t wall_ns;
    std::int64_t cpu_ns;
  };
  void start() {
    stamps_.clear();
    stamp();
  }
  void stamp() { stamps_.push_back({now_ns(), thread_cpu_ns()}); }
  const std::vector<Stamp>& stamps() const { return stamps_; }

 private:
  std::shared_ptr<workload::JobSource> inner_;
  std::vector<Stamp> stamps_;
};

struct ItemRecord {
  double best_wall = std::numeric_limits<double>::infinity();
  double best_cpu = std::numeric_limits<double>::infinity();
  double best_traced_wall = std::numeric_limits<double>::infinity();
  std::vector<double> segment_wall;  // per segment, fastest over the repetitions
  std::vector<double> segment_cpu;
  std::uint64_t jobs = 0;
  std::vector<double> walls;          // every timed untraced repetition
  std::vector<std::uint64_t> counts;  // of the first traced repetition
  psbench::LayerTotals traced;        // of the fastest traced repetition
  std::vector<psbench::Span> spans;   // of the last traced repetition
};

/// Peak RSS of one replay of `item` in a fresh process (forked before the
/// measuring process replays anything), so the figure is that of a single
/// replay and not the high-water mark of repetitions sharing one heap.
/// False when the child failed or its fingerprint differed.
bool peak_rss_of_replay(const ReplayItem& item, double& rss_mb) {
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 1;
    try {
      code = core::fingerprint(core::run_scenario(item.config)) == item.golden ? 0 : 1;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "psbench: replay failed: %s\n", error.what());
    }
    _exit(code);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Times untraced (and, with --trace 1, traced) repetitions of `items`
/// round-robin after one untimed warm-up, for about args.seconds, checking
/// every fingerprint. An item's time is the sum over its segments (see
/// SegmentClock) of each segment's fastest repetition: a neighbour's burst
/// on the shared host then has to miss one segment in one repetition, not
/// a whole replay, to leave the figure untouched. The end-to-end times are
/// reported at the reference clock (kReferenceProbeMs).
void measure_replays(const Args& args, const std::vector<ReplayItem>& items, double setup_s,
                     double generate_s, Outcome& outcome) {
  std::vector<ItemRecord> records(items.size());
  psbench::Tracer tracer(std::size_t{1} << 22);

  // The untimed runs (RSS child, traced replays) keep the items' own
  // configs; the timed ones pull through a SegmentClock. An in-memory trace
  // becomes a VectorJobSource, which is what run_scenario wraps it in.
  std::vector<core::ScenarioConfig> timed_configs;
  std::vector<std::shared_ptr<SegmentClock>> clocks;
  for (const ReplayItem& item : items) {
    core::ScenarioConfig config = item.config;
    std::shared_ptr<workload::JobSource> source = config.job_source;
    if (!source) {
      source = std::make_shared<workload::VectorJobSource>(*config.trace_jobs);
      config.trace_jobs.reset();
    }
    clocks.push_back(std::make_shared<SegmentClock>(std::move(source)));
    config.job_source = clocks.back();
    timed_configs.push_back(std::move(config));
  }

  auto untraced = [&](std::size_t i, bool timed) {
    SegmentClock& clock = *clocks[i];
    clock.start();
    core::ScenarioResult result = core::run_scenario(timed_configs[i]);
    clock.stamp();
    const std::vector<SegmentClock::Stamp>& stamps = clock.stamps();
    double cpu = static_cast<double>(stamps.back().cpu_ns - stamps.front().cpu_ns) / 1e9;
    double wall = static_cast<double>(stamps.back().wall_ns - stamps.front().wall_ns) / 1e9;
    ++outcome.attempted;
    std::uint64_t digest = core::fingerprint(result);
    if (digest != items[i].golden) {
      ++outcome.failed;
      outcome.fail(items[i].label + ": fingerprint " + hex(digest) + " != pinned " +
                   hex(items[i].golden));
    }
    ItemRecord& rec = records[i];
    rec.jobs = result.summary.submitted_jobs;
    if (!timed) return;
    rec.best_wall = std::min(rec.best_wall, wall);
    rec.best_cpu = std::min(rec.best_cpu, cpu);
    rec.walls.push_back(wall);
    std::size_t segments = stamps.size() - 1;
    if (rec.segment_wall.empty()) {
      rec.segment_wall.assign(segments, std::numeric_limits<double>::infinity());
      rec.segment_cpu.assign(segments, std::numeric_limits<double>::infinity());
    } else if (segments != rec.segment_wall.size()) {
      ++outcome.failed;
      outcome.fail(items[i].label + ": replay pulled its jobs in " + std::to_string(segments) +
                   " chunks, not " + std::to_string(rec.segment_wall.size()) +
                   " as in its first repetition");
      return;
    }
    for (std::size_t k = 0; k < segments; ++k) {
      rec.segment_wall[k] = std::min(
          rec.segment_wall[k],
          static_cast<double>(stamps[k + 1].wall_ns - stamps[k].wall_ns) / 1e9);
      rec.segment_cpu[k] = std::min(
          rec.segment_cpu[k], static_cast<double>(stamps[k + 1].cpu_ns - stamps[k].cpu_ns) / 1e9);
    }
  };
  auto traced = [&](std::size_t i) {
    psbench::TracedRun run = psbench::traced_replay(items[i].config, tracer);
    ++outcome.attempted;
    if (run.fingerprint != items[i].golden) {
      ++outcome.failed;
      outcome.fail(items[i].label + ": traced fingerprint " + hex(run.fingerprint) +
                   " != pinned " + hex(items[i].golden));
    }
    ItemRecord& rec = records[i];
    std::vector<std::uint64_t> counts = run.totals.counts();
    if (rec.counts.empty()) {
      rec.counts = counts;
    } else if (counts != rec.counts) {
      outcome.fail(items[i].label + ": per-layer counts changed between repetitions");
    }
    double wall = static_cast<double>(run.wall_ns) / 1e9;
    if (wall < rec.best_traced_wall) {
      rec.best_traced_wall = wall;
      rec.traced = run.totals;
    }
    rec.spans = tracer.spans();
  };

  double rss_mb = 0;
  if (!args.trace) {
    ++outcome.attempted;
    if (!peak_rss_of_replay(items[0], rss_mb)) {
      ++outcome.failed;
      outcome.fail(items[0].label + ": replay in the RSS child failed");
    }
  }
  untraced(0, /*timed=*/false);  // warm-up: heap and page cache

  // Round-robin, one item at a time, while the next one still fits in the
  // budget; every item runs at least once.
  const std::int64_t start = now_ns();
  std::vector<double> last_s(items.size(), 0.0);
  std::size_t reps = 0;
  double probe_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0;; i = (i + 1) % items.size(), ++reps) {
    if (reps >= items.size() && seconds_since(start) + last_s[i] > args.seconds) break;
    std::int64_t item_start = now_ns();
    probe_min = std::min(probe_min, probe_ms(kProbeIterations));
    untraced(i, true);
    if (args.trace) traced(i);
    last_s[i] = seconds_since(item_start);
  }

  auto sum = [](const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return total;
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::vector<double>& w = records[i].walls;
    std::fprintf(stderr,
                 "psbench:   %-16s %2zu reps  %4zu segments  fastest segments %.4f s  "
                 "best %.4f s  median %.4f s  worst %.4f s\n",
                 items[i].label.c_str(), w.size(), records[i].segment_wall.size(),
                 sum(records[i].segment_wall), records[i].best_wall, median(w),
                 *std::max_element(w.begin(), w.end()));
  }
  double jobs = 0, best_wall = 0, best_cpu = 0, best_traced = 0;
  double segments_wall = 0, segments_cpu = 0;
  psbench::LayerTotals totals;
  std::vector<std::uint64_t> counts;
  for (const ItemRecord& rec : records) {
    jobs += static_cast<double>(rec.jobs);
    best_wall += rec.best_wall;
    best_cpu += rec.best_cpu;
    best_traced += rec.best_traced_wall;
    segments_wall += sum(rec.segment_wall);
    segments_cpu += sum(rec.segment_cpu);
    totals.add(rec.traced);
    counts.insert(counts.end(), rec.counts.begin(), rec.counts.end());
  }
  std::fprintf(stderr,
               "psbench: %s seed %llu (submission chunk %lld min): %zu repetitions of %zu items "
               "in %.1f s; best wall %.3f s, best cpu %.3f s; fastest segments wall %.3f s, "
               "cpu %.3f s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<long long>(items[0].config.submit_chunk / sim::minutes(1)), reps,
               items.size(), seconds_since(start), best_wall, best_cpu, segments_wall,
               segments_cpu);
  // Times scale inversely with the clock: clock / reference clock.
  const double clock_ratio = kReferenceProbeMs / probe_min;
  std::fprintf(stderr,
               "psbench: fastest probe %.4f ms, clock %.3f x reference; as measured: setup "
               "%.4f s, %.1f jobs/s, latency %.3f ms\n",
               probe_min, clock_ratio, setup_s, jobs / segments_cpu,
               segments_wall / static_cast<double>(items.size()) * 1e3);

  if (!args.trace) {
    outcome.metrics.push_back({"setup_s", setup_s * clock_ratio, "s"});
    outcome.metrics.push_back({"jobs_per_s", jobs / (segments_cpu * clock_ratio), "1/s"});
    outcome.metrics.push_back(
        {"latency_ms",
         segments_wall * clock_ratio / static_cast<double>(items.size()) * 1e3, "ms"});
    outcome.metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
    return;
  }
  check_counts_across_runs(args, counts, outcome);
  double fail_frac = static_cast<double>(outcome.failed) /
                     static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
  add_layer_metrics(totals, generate_s, best_traced / best_wall - 1.0, fail_frac, {},
                    outcome.metrics);

  std::string events = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < items.size(); ++i) {
    psbench::append_chrome_events(records[i].spans, static_cast<int>(i + 1), items[i].label,
                                  events);
  }
  if (events.back() == '\n') events.resize(events.size() - 2);
  events += "\n]}\n";
  util::write_file_atomic(args.work + "/trace-" + args.workload + ".json", events,
                          /*durable=*/false);
}

void run_fig8(const Args& args, const Goldens& goldens, Outcome& outcome) {
  const sim::Duration chunk = chunk_for(args.seed, 1, 3);
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ChildResult child = run_in_child([&] {
      for (workload::Profile profile : kFig8Profiles) fig8_jobs(profile, kFig8Seed);
      return std::vector<double>{};
    });
    setups.push_back(child.cpu_s);
  }
  double setup_s = median(setups);

  std::vector<ReplayItem> items;
  std::map<workload::Profile, std::vector<workload::JobRequest>> jobs;
  for (workload::Profile profile : kFig8Profiles) jobs[profile] = fig8_jobs(profile, kFig8Seed);
  for (const Fig8Cell& cell : kFig8Cells) {
    items.push_back({cell.label, fig8_config(cell, jobs[cell.profile], chunk),
                     goldens.at(args.workload, cell.label)});
  }
  measure_replays(args, items, setup_s, setup_s, outcome);
}

void run_month(const Args& args, const Goldens& goldens, Outcome& outcome) {
  const std::string swf = args.work + "/month.swf";
  std::vector<double> setups, generates;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ChildResult child = run_in_child([&] {
      std::int64_t t0 = now_ns();
      std::vector<workload::JobRequest> trace = month_trace(kMonthSeed);
      double generate = seconds_since(t0);
      write_swf(swf, trace);
      return std::vector<double>{generate};
    });
    setups.push_back(child.cpu_s);
    generates.push_back(child.values.at(0));
  }
  std::vector<ReplayItem> items;
  items.push_back({"month", month_config(swf, chunk_for(args.seed, 30, 180)),
                   goldens.at(args.workload, "month")});
  measure_replays(args, items, median(setups), median(generates), outcome);
}

// --- serve_paced ---------------------------------------------------------------------

/// A ps-serve child, stdout and stderr redirected into the work directory.
class ServeChild {
 public:
  ServeChild(const Args& args, const std::string& spool, const std::string& out_path) {
    std::vector<std::string> argv = {args.serve_bin, "--spool", spool,
                                     "--expect-clients", "1", "--mode", "det",
                                     "--racks", "2", "--policy", "mix",
                                     "--lambda", "0.5", "--stats-ms", "0"};
    std::vector<char*> raw;
    for (std::string& a : argv) raw.push_back(a.data());
    raw.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, (out_path + ".err").c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int rc = posix_spawn(&pid_, raw[0], &actions, nullptr, raw.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + args.serve_bin);
  }
  ~ServeChild() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    try {
      wait(5'000);
    } catch (const std::exception&) {
      // Nothing left to do: the child was killed and cannot be reaped.
    }
  }
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  /// Waits up to `timeout_ms` for exit; true once reaped.
  bool wait(std::int64_t timeout_ms) {
    const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000;
    for (;;) {
      int status = 0;
      pid_t got = wait4(pid_, &status, WNOHANG, &usage_);
      if (got == pid_) {
        pid_ = -1;
        exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
        return true;
      }
      if (got < 0 && errno != EINTR) throw std::runtime_error("wait4 failed");
      if (now_ns() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  void terminate() {
    if (pid_ > 0) kill(pid_, SIGTERM);
  }
  int exit_code() const noexcept { return exit_code_; }
  const rusage& usage() const noexcept { return usage_; }

 private:
  pid_t pid_ = -1;
  int exit_code_ = -1;
  rusage usage_{};
};

void wait_for_file(const std::string& path, std::int64_t timeout_ms) {
  const std::int64_t deadline = now_ns() + timeout_ms * 1'000'000;
  while (!util::path_exists(path)) {
    if (now_ns() >= deadline) throw std::runtime_error("timed out waiting for " + path);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

struct Published {
  std::uint64_t jobs = 0;
  std::vector<double> late_ms;  // per document, publish time minus due time
};

/// Open-loop generator: publishes `jobs` in kServeBatchJobs documents, each
/// due when wall time reaches its last job's submit time / kServeAccel plus
/// a jitter of up to kJitterMs drawn from `seed` (kept in order). The
/// document carries its due time as publish_ns, so the server's admission
/// latency is timed from when the document was due, not when a late
/// generator got round to it; lateness is reported separately.
Published publish_paced(const std::string& spool,
                        const std::vector<workload::JobRequest>& jobs, std::uint64_t seed) {
  const std::string client = "bench";
  const std::string inbox = serve::inbox_dir(spool);
  Published out;
  serve::Hello hello;
  hello.client = client;
  hello.jobs = jobs.size();
  hello.last_submit = jobs.empty() ? -1 : jobs.back().submit_time;
  util::write_file_atomic(inbox + "/" + serve::hello_file_name(client),
                          serve::serialize_hello(hello), /*durable=*/false);
  const std::int64_t start_ns = serve::monotonic_ns();
  std::int64_t due_ns = start_ns;  // non-decreasing: documents go out in order
  std::uint64_t jitter = seed;
  std::size_t pos = 0;
  std::uint64_t seq = 0;
  do {
    std::size_t end = std::min(jobs.size(), pos + kServeBatchJobs);
    serve::Submission doc;
    doc.client = client;
    doc.seq = seq++;
    doc.eof = end == jobs.size();
    doc.watermark = doc.eof ? hello.last_submit : jobs[end].submit_time - 1;
    doc.jobs.assign(jobs.begin() + static_cast<std::ptrdiff_t>(pos),
                    jobs.begin() + static_cast<std::ptrdiff_t>(end));
    double due_ms = end > pos ? static_cast<double>(jobs[end - 1].submit_time) / kServeAccel
                              : 0.0;
    due_ms += kJitterMs * static_cast<double>(splitmix64(jitter) >> 11) * 0x1p-53;
    due_ns = std::max(due_ns, start_ns + static_cast<std::int64_t>(due_ms * 1e6));
    doc.publish_ns = due_ns;
    const std::string sealed = serve::serialize_submission(doc);
    for (std::int64_t now = serve::monotonic_ns(); now < due_ns;
         now = serve::monotonic_ns()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
    }
    util::write_file_atomic(inbox + "/" + serve::submission_file_name(client, doc.seq),
                            sealed, /*durable=*/false);
    double late = static_cast<double>(serve::monotonic_ns() - due_ns) / 1e6;
    out.late_ms.push_back(late);
    out.jobs += doc.jobs.size();
    pos = end;
  } while (pos < jobs.size());
  return out;
}

std::map<std::string, std::string> parse_report(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string key, value;
  while (in >> key >> value) out[key] = value;
  return out;
}

/// One ps-serve session: the daemon's report and rusage plus what the
/// generator saw.
struct Session {
  std::map<std::string, std::string> report;
  Published published;
  double inbox_depth = 0;
  rusage usage{};

  double num(const char* key) const {
    auto it = report.find(key);
    if (it == report.end()) throw std::runtime_error(std::string("serve report lacks ") + key);
    return std::stod(it->second);
  }
  double cpu_s() const {
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  }
};

/// Set-up of one session, timed into `setups`/`generates`: trace generation
/// and writing plus spool creation (in a child), then the daemon start.
std::unique_ptr<ServeChild> set_up_daemon(const Args& args, const std::string& swf,
                                          const std::string& spool,
                                          const std::string& out_path,
                                          std::vector<double>& setups,
                                          std::vector<double>& generates) {
  util::remove_tree(spool);
  ChildResult child = run_in_child([&] {
    std::int64_t t0 = now_ns();
    std::vector<workload::JobRequest> trace = month_trace(kMonthSeed);
    double generate = seconds_since(t0);
    write_swf(swf, trace);
    util::ensure_dir(spool);
    return std::vector<double>{generate};
  });
  std::int64_t t0 = now_ns();
  auto daemon = std::make_unique<ServeChild>(args, spool, out_path);
  wait_for_file(serve::status_path(spool), 30'000);
  setups.push_back(child.cpu_s + seconds_since(t0));
  generates.push_back(child.values.at(0));
  return daemon;
}

Session run_session(ServeChild& daemon, const std::string& spool,
                    const std::string& out_path,
                    const std::vector<workload::JobRequest>& jobs, std::uint64_t seed) {
  Session session;
  session.published = publish_paced(spool, jobs, seed);
  session.inbox_depth =
      static_cast<double>(util::list_files(serve::inbox_dir(spool), ".sub").size());
  if (!daemon.wait(60'000)) throw std::runtime_error("ps-serve did not drain in 60 s");
  if (daemon.exit_code() != 0) {
    throw std::runtime_error("ps-serve exited with code " +
                             std::to_string(daemon.exit_code()));
  }
  session.usage = daemon.usage();
  session.report = parse_report(util::read_file(out_path));
  return session;
}

void run_serve(const Args& args, const Goldens& goldens, Outcome& outcome) {
  const std::string swf = args.work + "/serve.swf";
  const std::string spool = args.work + "/spool";
  const std::string out_path = args.work + "/serve.out";

  // Set-up-only repetitions (daemon started, then stopped) ...
  std::vector<double> setups, generates;
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    std::unique_ptr<ServeChild> daemon =
        set_up_daemon(args, swf, spool, out_path, setups, generates);
    daemon->terminate();
    if (!daemon->wait(30'000)) throw std::runtime_error("ps-serve ignored SIGTERM");
  }
  std::vector<workload::JobRequest> jobs = load_trace(swf);

  // ... the offline reference every session must reproduce (itself pinned) ...
  const std::uint64_t golden = goldens.at(args.workload, "offline");
  core::ScenarioConfig offline = serve_config(jobs);
  std::int64_t offline0 = now_ns();
  std::uint64_t offline_digest = core::fingerprint(core::run_scenario(offline));
  double offline_s = seconds_since(offline0);
  if (offline_digest != golden) {
    outcome.fail("offline replay " + hex(offline_digest) + " != pinned " + hex(golden));
  }

  // ... then sessions, each with its own set-up, while the budget lasts.
  std::vector<Session> sessions;
  const std::int64_t start = now_ns();
  for (;;) {
    std::int64_t session_start = now_ns();
    std::unique_ptr<ServeChild> daemon =
        set_up_daemon(args, swf, spool, out_path, setups, generates);
    sessions.push_back(run_session(*daemon, spool, out_path, jobs, args.seed));
    double session_s = seconds_since(session_start);
    if (seconds_since(start) + session_s > args.seconds) break;
  }

  std::vector<double> jobs_per_s, p50, rss, user, sys, p95, p99, late, depth;
  double failed = 0;
  for (const Session& session : sessions) {
    // Correctness: every published job admitted, nothing quarantined, and
    // the daemon's replay equal to the offline replay of the same jobs.
    const Published& pub = session.published;
    const double admitted = session.num("admitted");
    const std::string served =
        session.report.count("fingerprint") ? session.report.at("fingerprint") : "";
    if (served != hex(offline_digest)) {
      outcome.fail("ps-serve fingerprint " + served + " != offline " + hex(offline_digest));
    }
    if (admitted != static_cast<double>(pub.jobs) || session.num("quarantined_docs") != 0) {
      outcome.fail("ps-serve admitted " + session.report.at("admitted") + " of " +
                   std::to_string(pub.jobs) + " published jobs, quarantined " +
                   session.report.at("quarantined_docs") + " documents");
    }
    // Honest open loop: an invalid session counts every job it published
    // as failed rather than reporting numbers from a load it did not offer.
    const double late_p99 = quantile(pub.late_ms, 0.99);
    double invalid_jobs = 0;
    if (late_p99 > kLateLimitMs ||
        session.inbox_depth > static_cast<double>(kInboxDepthLimit)) {
      invalid_jobs = static_cast<double>(pub.jobs);
      std::fprintf(stderr,
                   "psbench: INVALID open loop: generator late p99 %.2f ms, inbox depth "
                   "%.0f\n",
                   late_p99, session.inbox_depth);
    }
    outcome.attempted += pub.jobs;
    failed += std::min(static_cast<double>(pub.jobs),
                       std::max(0.0, static_cast<double>(pub.jobs) - admitted) +
                           session.num("quarantined_jobs") + invalid_jobs);

    const double user_s = static_cast<double>(session.usage.ru_utime.tv_sec) +
                          static_cast<double>(session.usage.ru_utime.tv_usec) / 1e6;
    jobs_per_s.push_back(admitted / session.cpu_s());
    p50.push_back(session.num("latency_p50_ms"));
    rss.push_back(static_cast<double>(session.usage.ru_maxrss) / 1024.0);
    user.push_back(user_s);
    sys.push_back(session.cpu_s() - user_s);
    p95.push_back(session.num("latency_p95_ms"));
    p99.push_back(session.num("latency_p99_ms"));
    late.push_back(late_p99);
    depth.push_back(session.inbox_depth);
    std::fprintf(stderr,
                 "psbench: serve_paced seed %llu: %.0f jobs in %.0f docs, wall %.0f ms, "
                 "cpu %.3f s, p50 %.3f ms, late p99 %.3f ms, inbox depth %.0f\n",
                 static_cast<unsigned long long>(args.seed), admitted, session.num("docs"),
                 session.num("wall_ms"), session.cpu_s(), p50.back(), late.back(),
                 session.inbox_depth);
  }
  outcome.failed = static_cast<std::uint64_t>(failed);

  if (!args.trace) {
    outcome.metrics.push_back({"setup_s", median(setups), "s"});
    outcome.metrics.push_back({"jobs_per_s", median(jobs_per_s), "1/s"});
    outcome.metrics.push_back({"latency_ms", median(p50), "ms"});
    outcome.metrics.push_back({"peak_rss_mb", median(rss), "MB"});
    return;
  }

  // Traced: the replay layers are measured on the offline twin of the
  // sessions (the daemon's internals are out of the benchmark's reach).
  psbench::Tracer tracer(std::size_t{1} << 20);
  psbench::TracedRun traced = psbench::traced_replay(offline, tracer);
  ++outcome.attempted;
  if (traced.fingerprint != golden) {
    ++outcome.failed;
    outcome.fail("traced offline replay " + hex(traced.fingerprint) + " != pinned " +
                 hex(golden));
  }
  // Documents are an exact count. Checkpoints, pruned journal files, stalls
  // and queue depth depend on when the serve loop observes progress, so
  // they are gauges: medians over sessions, never checked for equality.
  std::vector<std::uint64_t> counts = traced.totals.counts();
  const auto docs = static_cast<std::uint64_t>(sessions.front().num("docs"));
  for (const Session& session : sessions) {
    if (static_cast<std::uint64_t>(session.num("docs")) != docs) {
      outcome.fail("serve document count changed between sessions");
    }
  }
  counts.push_back(docs);
  check_counts_across_runs(args, counts, outcome);

  auto median_of = [&](const char* key) {
    std::vector<double> values;
    for (const Session& session : sessions) values.push_back(session.num(key));
    return median(values);
  };
  ServeLayer layer;
  layer.docs = static_cast<double>(docs);
  layer.checkpoints = median_of("checkpoints");
  layer.journal_pruned = median_of("journal_pruned");
  layer.backpressure_stalls = median_of("backpressure_stalls");
  layer.peak_queue = median_of("peak_queue");
  layer.cpu_user_s = median(user);
  layer.cpu_sys_s = median(sys);
  layer.cpu_us_per_job = 1e6 / median(jobs_per_s);
  layer.admit_p95_ms = median(p95);
  layer.admit_p99_ms = median(p99);
  layer.inbox_depth_end = median(depth);
  layer.late_p99_ms = median(late);
  double fail_frac = static_cast<double>(outcome.failed) /
                     static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
  add_layer_metrics(traced.totals, median(generates),
                    static_cast<double>(traced.wall_ns) / 1e9 / offline_s - 1.0, fail_frac,
                    layer, outcome.metrics);
}

// --- golden pinning ------------------------------------------------------------------

/// Prints goldens.txt: fingerprints from the repository's own entry points
/// (generated profiles, materialized traces), independent of the chunked
/// and served paths the timed runs take.
void pin(const Args& args) {
  std::printf("# <workload> <item> <fingerprint>; regenerate with `psbench --pin`\n");
  for (const Fig8Cell& cell : kFig8Cells) {
    core::ScenarioConfig config;
    config.profile = cell.profile;
    config.seed = kFig8Seed;
    config.racks = cluster::curie::kRacks;
    config.powercap.policy = cell.policy;
    config.cap_lambda = kFig8Lambda;
    std::printf("fig8_curie %s %s\n", cell.label,
                hex(core::fingerprint(core::run_scenario(config))).c_str());
  }
  std::string swf = args.work + "/pin.swf";
  write_swf(swf, month_trace(kMonthSeed));
  std::vector<workload::JobRequest> jobs = load_trace(swf);
  core::ScenarioConfig month = month_config(swf, 0);
  month.job_source.reset();
  month.trace_jobs = jobs;
  std::printf("month_stream month %s\n",
              hex(core::fingerprint(core::run_scenario(month))).c_str());
  std::printf("serve_paced offline %s\n",
              hex(core::fingerprint(core::run_scenario(serve_config(jobs)))).c_str());
  util::remove_file(swf);
}

void print_json(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string need(int argc, char** argv, int& i) {
  if (i + 1 >= argc) throw std::runtime_error(std::string("missing value after ") + argv[i]);
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args;
    bool pin_mode = false;
    for (int i = 1; i < argc; ++i) {
      std::string flag = argv[i];
      if (flag == "--workload") args.workload = need(argc, argv, i);
      else if (flag == "--seed") args.seed = std::stoull(need(argc, argv, i));
      else if (flag == "--seconds") args.seconds = std::stod(need(argc, argv, i));
      else if (flag == "--trace") args.trace = need(argc, argv, i) == "1";
      else if (flag == "--work") args.work = need(argc, argv, i);
      else if (flag == "--goldens") args.goldens = need(argc, argv, i);
      else if (flag == "--serve-bin") args.serve_bin = need(argc, argv, i);
      else if (flag == "--pin") pin_mode = true;
      else if (flag == "--build-info") {
        std::printf("{\"build_type\": \"%s\", \"flags\": \"%s\", \"compiler\": \"%s\", "
                    "\"optimized\": %s}\n",
                    PSBENCH_BUILD_TYPE, PSBENCH_CXX_FLAGS, PSBENCH_COMPILER,
                    PSBENCH_OPTIMIZED ? "true" : "false");
        return 0;
      } else {
        throw std::runtime_error("unknown option " + flag);
      }
    }
    if (!PSBENCH_OPTIMIZED || std::string(PSBENCH_BUILD_TYPE) != "Release" ||
        std::string(PSBENCH_CXX_FLAGS).find("-O3") == std::string::npos) {
      throw std::runtime_error(std::string("refusing to measure a ") + PSBENCH_BUILD_TYPE +
                               " build (" + PSBENCH_CXX_FLAGS + "): Release -O3 only");
    }
    if (args.work.empty()) throw std::runtime_error("--work DIR is required");
    util::ensure_dir(args.work);
    if (pin_mode) {
      pin(args);
      return 0;
    }
    if (args.seconds <= 0) throw std::runtime_error("--seconds must be positive");
    Goldens goldens(args.goldens);
    Outcome outcome;
    if (args.workload == "fig8_curie") run_fig8(args, goldens, outcome);
    else if (args.workload == "month_stream") run_month(args, goldens, outcome);
    else if (args.workload == "serve_paced") run_serve(args, goldens, outcome);
    else throw std::runtime_error("unknown workload '" + args.workload + "'");
    if (!args.trace) std::fprintf(stderr, "psbench: host ref loop %.3f ms\n", ref_loop_ms());
    print_json(outcome);
    return outcome.correct && outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psbench: %s\n", error.what());
    return 1;
  }
}
