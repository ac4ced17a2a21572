// Outside-in probes for the benchmark's traced run.
//
// Nothing here reaches inside the library: the ProbeSink is an ordinary
// obs::TraceSink attached with Tracer::add_sink, and the EventClock is the
// predicate handed to Simulation::run_until, which the simulation calls
// after every event. Together they charge each event's host time to the
// class of trace kinds the event emitted.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace_sink.h"

namespace stark {
class TaskScheduler;
namespace sim {
class Simulation;
}
}  // namespace stark

namespace perf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Event classes in precedence order: an event that emitted kinds of several
// classes is charged to the first one that matches.
enum EventClass : int {
  kArrival,     // JobSubmit / AdmissionVerdict
  kJobEnd,      // JobFinish / DeadlineExceeded
  kCompletion,  // TaskFinish / TaskFail
  kRelaunch,    // TaskLaunch / TaskRetry / StageSubmit / StageResubmit
  kFault,       // ExecutorLost / BlockCorrupt / CorruptionDetected
  kHedge,       // HedgeIssued / HedgeResolved / SlownessBand
  kQuiet,       // none of the above (mostly fruitless timer sweeps)
  kNumClasses,
};

const char* event_class_name(int c);

// Forwarding trace sink. Records which kinds each event emitted and counts
// kinds and flags over the measured window; when the workload attaches its
// own sinks, the probe stands in front of them and times every forward.
class ProbeSink final : public stark::obs::TraceSink {
 public:
  static constexpr int kNumKinds =
      static_cast<int>(stark::obs::TraceKind::kAutoFree) + 1;
  static_assert(kNumKinds <= 64, "kind masks are 64-bit");

  // The ring and aggregation sinks the workload itself traces into.
  void forward_to(std::shared_ptr<stark::obs::TraceSink> ring,
                  std::shared_ptr<stark::obs::TraceSink> aggregate);

  void on_event(const stark::obs::TraceEvent& e) override;
  void flush() override;

  // Kinds seen since the previous call, as a bit mask over TraceKind.
  std::uint64_t take_kinds() noexcept {
    const std::uint64_t m = kinds_;
    kinds_ = 0;
    return m;
  }
  // Zeroes every counter; called when the measured window opens.
  void reset();

  long long count(stark::obs::TraceKind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }
  long long node_local_finishes() const noexcept { return node_local_; }
  long long spilled_evictions() const noexcept { return spilled_; }
  long long hedges_won() const noexcept { return hedges_won_; }
  long long forwarded() const noexcept { return forwarded_; }
  double ring_seconds() const noexcept { return ring_s_; }
  double aggregate_seconds() const noexcept { return aggregate_s_; }

 private:
  std::shared_ptr<stark::obs::TraceSink> ring_;
  std::shared_ptr<stark::obs::TraceSink> aggregate_;
  std::uint64_t kinds_ = 0;
  std::array<long long, kNumKinds> counts_{};
  long long node_local_ = 0;
  long long spilled_ = 0;
  long long hedges_won_ = 0;
  long long forwarded_ = 0;
  double ring_s_ = 0.0;
  double aggregate_s_ = 0.0;
};

// The per-event predicate for Simulation::run_until. Each call reads the
// clock once and charges the time since the previous call to the class of
// the event that just ran. It never stops the run, so the queue drains
// exactly as Simulation::run() would.
class EventClock {
 public:
  EventClock(ProbeSink& probe, const stark::sim::Simulation& sim,
             const stark::TaskScheduler& tasks);

  bool tick();
  // Room for `events` per-event times, so that recording one never
  // reallocates inside the interval the next tick charges.
  void reserve(std::size_t events) { event_us_.reserve(events); }

  long long count(int c) const { return count_[static_cast<std::size_t>(c)]; }
  double seconds(int c) const { return secs_[static_cast<std::size_t>(c)]; }
  double evicting_seconds() const noexcept { return evicting_s_; }
  double faultback_seconds() const noexcept { return faultback_s_; }
  std::size_t peak_pending_events() const noexcept { return peak_events_; }
  std::size_t peak_pending_sets() const noexcept { return peak_sets_; }
  // Host microseconds of every event, in execution order.
  const std::vector<float>& event_us() const noexcept { return event_us_; }

 private:
  ProbeSink* probe_;
  const stark::sim::Simulation* sim_;
  const stark::TaskScheduler* tasks_;
  bool primed_ = false;
  Clock::time_point last_{};
  std::array<long long, kNumClasses> count_{};
  std::array<double, kNumClasses> secs_{};
  double evicting_s_ = 0.0;
  double faultback_s_ = 0.0;
  std::size_t peak_events_ = 0;
  std::size_t peak_sets_ = 0;
  std::vector<float> event_us_;
};

}  // namespace perf
