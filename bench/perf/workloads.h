// The benchmark's four workloads, built only through the public
// stark::Context API. Each one is seeded, open or closed loop in simulated
// time, and drains: its generators stop at window_end() and nothing keeps
// the event queue alive after the last job, so Simulation::run() with no
// time limit and Simulation::run_until() execute exactly the same events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/context.h"
#include "common/stats.h"
#include "probe.h"

namespace perf {

// What the measured window's generators issued. `delays` holds the
// simulated delay of every session or job that completed; the others count
// toward `failed` (aborted, refused, shed or timed out).
struct Outcome {
  stark::Distribution delays;
  long long issued = 0;
  long long failed = 0;
};

struct WorkloadParams {
  std::uint64_t seed = 7;
  // 1 for the full workload, 1/20 for --smoke (both windows shrink).
  double scale = 1.0;
  // Non-null in the traced run: attached to the tracer, and placed in
  // front of any sinks the workload traces into.
  std::shared_ptr<ProbeSink> probe;
};

class Workload {
 public:
  virtual ~Workload() = default;

  stark::Context& ctx() noexcept { return *ctx_; }
  stark::SimTime window_start() const noexcept { return window_start_; }
  stark::SimTime window_end() const noexcept { return window_end_; }

  // Loads the inputs: ingests datasets or fills the stream's retention
  // window.
  virtual void load() = 0;
  // Runs the warm-up window, up to window_start().
  virtual void warm_up() = 0;
  // Schedules the measured generators over [window_start, window_end).
  virtual void open_window() = 0;
  virtual Outcome outcome() const = 0;

  // DagScheduler::submit calls the benchmark made itself inside the
  // measured window, and their host time (timed in the traced run only).
  long long submit_calls() const noexcept { return submit_calls_; }
  double submit_seconds() const noexcept { return submit_s_; }

 protected:
  explicit Workload(const WorkloadParams& p) : params_(p) {}
  // Builds the Context and attaches the probe, if any. A `self_traced`
  // workload traces into its own ring and aggregation sinks from the start.
  void build(stark::ContextOptions opts, bool self_traced);
  // DagScheduler::submit, timed when the probe is attached and `measured`.
  void submit(const stark::DatasetPtr& ds, stark::SubmitOptions opts,
              stark::JobCallback cb, bool measured);

  WorkloadParams params_;
  std::unique_ptr<stark::Context> ctx_;
  stark::SimTime window_start_ = 0.0;
  stark::SimTime window_end_ = 0.0;

 private:
  long long submit_calls_ = 0;
  double submit_s_ = 0.0;
};

const std::vector<std::string>& workload_names();

// Constructs the named workload, including its Context (the caller times
// this as api.context_s). Throws std::invalid_argument for unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& p);

}  // namespace perf
