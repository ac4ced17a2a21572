#include "probe.h"

#include <algorithm>

#include "sched/task_scheduler.h"
#include "sim/simulation.h"

namespace perf {

namespace {

using stark::obs::TraceKind;

constexpr std::uint64_t bit(TraceKind k) {
  return std::uint64_t{1} << static_cast<unsigned>(k);
}

// Class masks in precedence order (index = EventClass); kQuiet matches
// whatever is left.
constexpr std::array<std::uint64_t, kQuiet> kClassMasks = {
    bit(TraceKind::kJobSubmit) | bit(TraceKind::kAdmissionVerdict),
    bit(TraceKind::kJobFinish) | bit(TraceKind::kDeadlineExceeded),
    bit(TraceKind::kTaskFinish) | bit(TraceKind::kTaskFail),
    bit(TraceKind::kTaskLaunch) | bit(TraceKind::kTaskRetry) |
        bit(TraceKind::kStageSubmit) | bit(TraceKind::kStageResubmit),
    bit(TraceKind::kExecutorLost) | bit(TraceKind::kBlockCorrupt) |
        bit(TraceKind::kCorruptionDetected),
    bit(TraceKind::kHedgeIssued) | bit(TraceKind::kHedgeResolved) |
        bit(TraceKind::kSlownessBand),
};

// Overlays, reported outside the class partition.
constexpr std::uint64_t kEvicting =
    bit(TraceKind::kBlockEvict) | bit(TraceKind::kEvictionDecision);
constexpr std::uint64_t kFaultBack = bit(TraceKind::kBlockFaultBack);

int classify(std::uint64_t kinds) {
  for (int c = 0; c < kQuiet; ++c) {
    if (kinds & kClassMasks[static_cast<std::size_t>(c)]) return c;
  }
  return kQuiet;
}

}  // namespace

const char* event_class_name(int c) {
  static constexpr const char* kNames[kNumClasses] = {
      "arrival", "job_end", "completion", "relaunch",
      "fault",   "hedge",   "quiet"};
  return kNames[c];
}

void ProbeSink::forward_to(std::shared_ptr<stark::obs::TraceSink> ring,
                           std::shared_ptr<stark::obs::TraceSink> aggregate) {
  ring_ = std::move(ring);
  aggregate_ = std::move(aggregate);
}

void ProbeSink::on_event(const stark::obs::TraceEvent& e) {
  const auto k = static_cast<std::size_t>(e.kind);
  kinds_ |= std::uint64_t{1} << k;
  ++counts_[k];
  switch (e.kind) {
    case TraceKind::kTaskFinish:
      if (e.flags & stark::obs::kFlagNodeLocal) ++node_local_;
      break;
    case TraceKind::kEvictionDecision:
      if (e.flags & stark::obs::kFlagSpilled) ++spilled_;
      break;
    case TraceKind::kHedgeResolved:
      if (e.code == 1) ++hedges_won_;
      break;
    default:
      break;
  }
  if (ring_ == nullptr) return;
  const auto t0 = Clock::now();
  ring_->on_event(e);
  const auto t1 = Clock::now();
  aggregate_->on_event(e);
  const auto t2 = Clock::now();
  ring_s_ += seconds_between(t0, t1);
  aggregate_s_ += seconds_between(t1, t2);
  ++forwarded_;
}

void ProbeSink::flush() {
  if (ring_ != nullptr) ring_->flush();
  if (aggregate_ != nullptr) aggregate_->flush();
}

void ProbeSink::reset() {
  kinds_ = 0;
  counts_.fill(0);
  node_local_ = spilled_ = hedges_won_ = forwarded_ = 0;
  ring_s_ = aggregate_s_ = 0.0;
}

EventClock::EventClock(ProbeSink& probe, const stark::sim::Simulation& sim,
                       const stark::TaskScheduler& tasks)
    : probe_(&probe), sim_(&sim), tasks_(&tasks) {}

bool EventClock::tick() {
  const auto now = Clock::now();
  const std::uint64_t kinds = probe_->take_kinds();
  // run_until evaluates the predicate once before the first event.
  if (!primed_) {
    primed_ = true;
    last_ = now;
    return false;
  }
  const double s = seconds_between(last_, now);
  last_ = now;
  const auto c = static_cast<std::size_t>(classify(kinds));
  ++count_[c];
  secs_[c] += s;
  if (kinds & kEvicting) evicting_s_ += s;
  if (kinds & kFaultBack) faultback_s_ += s;
  event_us_.push_back(static_cast<float>(s * 1e6));
  peak_events_ = std::max(peak_events_, sim_->pending_events());
  peak_sets_ = std::max(peak_sets_, tasks_->pending_task_sets());
  return false;
}

}  // namespace perf
