// The benchmark's traced replay: its own assembly of core::run_scenario's
// wiring, with spans recorded at the public seams between layers (job
// source, online governor, offline planner, event loop, summary,
// fingerprint) and heap allocations counted per span. The program itself
// is not modified: every span is taken from outside, around a call into a
// layer, so a traced replay must reproduce the untraced fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace psbench {

/// Steady-clock nanoseconds.
std::int64_t now_ns() noexcept;

enum SpanName : std::uint8_t {
  kReplay,
  kNextChunk,
  kAdmit,
  kKnownRejected,
  kPlan,
  kRunUntil,
  kSummarize,
  kFingerprint,
  kSpanNameCount,
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< inclusive of child spans
  std::int32_t parent = -1;
  SpanName name = kReplay;
};

/// In-memory span recorder. The buffer is reserved up front so recording
/// never allocates inside a measured span; overflowing it is an error.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  std::int32_t begin(SpanName name);
  void end(std::int32_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() noexcept;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Per-layer totals of one traced replay (or a sum of several).
struct LayerTotals {
  std::int64_t incl_ns[kSpanNameCount] = {};
  std::int64_t self_ns[kSpanNameCount] = {};
  std::uint64_t calls[kSpanNameCount] = {};
  std::uint64_t self_allocs[kSpanNameCount] = {};
  std::uint64_t incl_allocs[kSpanNameCount] = {};

  // Counts read from the layers' own counters after the replay.
  std::uint64_t admit_granted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t plans = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t samples = 0;
  ps::rjms::Controller::Stats stats;

  void add(const LayerTotals& other);
  /// The exact counts (everything but times); equal across repetitions of
  /// one deterministic replay.
  std::vector<std::uint64_t> counts() const;
};

struct TracedRun {
  ps::core::ScenarioResult result;
  std::uint64_t fingerprint = 0;
  LayerTotals totals;
  std::int64_t wall_ns = 0;  ///< the whole traced replay
};

/// Replays `config` like core::run_scenario, recording spans into `tracer`
/// (cleared first). Supports the configurations the benchmark runs:
/// in-memory or streamed workloads with a single cap window or a schedule
/// of advance windows.
TracedRun traced_replay(const ps::core::ScenarioConfig& config, Tracer& tracer);

/// Appends `spans` as Chrome trace events (one "X" event per span, thread
/// id `tid`) to `events`, each line comma-terminated.
void append_chrome_events(const std::vector<Span>& spans, int tid,
                          const std::string& label, std::string& events);

}  // namespace psbench
