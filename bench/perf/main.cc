// stark_perf: one measurement of one workload of the outside-in simulator
// benchmark (see README.md in this directory).
//
//   stark_perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke]
//
// --trace 0 (untraced) sets the workload up three times, runs the measured
// window once on the last set-up, and reports the end-to-end metrics, with
// setup_s the median of the three set-ups. --trace 1 runs the window once
// untraced (timed in eight simulated-time slices) and once traced through
// the probes in probe.h, and reports the per-layer metrics. Host times are
// as measured. The window is a fixed amount of simulated work sized to take
// about ten seconds; --seconds is accepted, because the BENCHMARK.json
// command line carries it, and does not cut it short. Every run checks its own outputs; the last line of
// stdout is the result JSON, the line before it carries the simulated
// digest, and stderr repeats each metric as `workload metric value unit`.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace {

using perf::Clock;
using perf::seconds_between;
using stark::obs::TraceKind;

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 0.0;
  int trace = 0;
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Setup {
  double context_s = 0.0;
  double ingest_s = 0.0;
  double warmup_s = 0.0;
  double total() const { return context_s + ingest_s + warmup_s; }
};

std::unique_ptr<perf::Workload> set_up(const Args& a,
                                       std::shared_ptr<perf::ProbeSink> probe,
                                       Setup& s) {
  const perf::WorkloadParams p{a.seed, a.smoke ? 0.05 : 1.0,
                               std::move(probe)};
  const auto t0 = Clock::now();
  auto w = perf::make_workload(a.workload, p);
  const auto t1 = Clock::now();
  w->load();
  const auto t2 = Clock::now();
  w->warm_up();
  const auto t3 = Clock::now();
  s = {seconds_between(t0, t1), seconds_between(t1, t2),
       seconds_between(t2, t3)};
  return w;
}

// FNV-1a over the simulated outputs: events and tasks executed, sessions
// or jobs issued and failed, and every completed delay in sorted order.
std::uint64_t digest(perf::Workload& w, const perf::Outcome& o) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(w.ctx().sim().executed_events());
  mix(w.ctx().dag().tasks().tasks_completed());
  mix(static_cast<std::uint64_t>(o.issued));
  mix(static_cast<std::uint64_t>(o.failed));
  std::vector<double> d = o.delays.samples();
  std::sort(d.begin(), d.end());
  for (double x : d) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    mix(bits);
  }
  return h;
}

// sim.slice_growth compares the first and last of 8 equal simulated-time
// slices of the untraced window.
constexpr int kSlices = 8;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

struct Window {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::array<double, kSlices> slice_s{};
  std::array<std::uint64_t, kSlices> slice_events{};
};

// The untraced measured window as equal simulated-time slices of
// Simulation::run(until); the last slice drains the queue.
Window run_untraced(perf::Workload& w) {
  w.open_window();
  auto& sim = w.ctx().sim();
  const double t0 = w.window_start();
  const double slice = (w.window_end() - t0) / kSlices;
  Window r;
  const std::uint64_t e0 = sim.executed_events();
  for (std::size_t i = 0; i < kSlices; ++i) {
    const std::uint64_t before = sim.executed_events();
    const auto a = Clock::now();
    if (i + 1 < kSlices) {
      sim.run(t0 + slice * static_cast<double>(i + 1));
    } else {
      sim.run();
    }
    r.slice_s[i] = seconds_between(a, Clock::now());
    r.slice_events[i] = sim.executed_events() - before;
    r.wall_s += r.slice_s[i];
  }
  r.events = sim.executed_events() - e0;
  return r;
}

struct Checks {
  bool ok = true;
  void expect(bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "[stark_perf] check failed: %s\n", what);
      ok = false;
    }
  }
  // Every issued session or job is accounted for, and the failed share
  // stays below 1% (the guard against chaos_recovery's collapsed regime).
  void outcome(const perf::Outcome& o) {
    expect(o.issued >= 1, "the measured window issued work");
    expect(static_cast<long long>(o.delays.count()) + o.failed == o.issued,
           "every issued session or job completed or failed");
    const double failed_frac =
        ratio(static_cast<double>(o.failed), static_cast<double>(o.issued));
    expect(failed_frac < 0.01, "jobs_failed_frac < 0.01");
  }
};

struct Result {
  Checks checks;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::uint64_t digest = 0;
  std::size_t job_samples = 0;
};

Result untraced(const Args& a) {
  Result r;
  std::vector<double> setups;
  Setup s;
  // Only the last set-up runs the window; the others are timed and dropped.
  for (int i = 1; i < kSetups; ++i) {
    set_up(a, nullptr, s);
    setups.push_back(s.total());
  }
  auto w = set_up(a, nullptr, s);
  setups.push_back(s.total());
  const Window win = run_untraced(*w);
  const perf::Outcome o = w->outcome();
  r.digest = digest(*w, o);
  r.checks.outcome(o);
  r.attempted = o.issued;
  r.failed = o.failed;
  r.job_samples = o.delays.count();
  r.metrics = {
      {"wall_s", win.wall_s, "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"job_p50_s", o.delays.percentile(0.50), "s"},
      {"job_p99_s", o.delays.percentile(0.99), "s"},
      {"jobs_ok_frac",
       1.0 - ratio(static_cast<double>(o.failed),
                   static_cast<double>(o.issued)),
       "fraction"},
  };
  return r;
}

Result traced(const Args& a) {
  Result r;
  // Untraced pass: the reference digest, us/event and slice growth.
  Setup su;
  auto wu = set_up(a, nullptr, su);
  const Window win = run_untraced(*wu);
  const perf::Outcome ou = wu->outcome();
  r.digest = digest(*wu, ou);
  wu.reset();

  // Traced pass through the probes.
  auto probe = std::make_shared<perf::ProbeSink>();
  Setup st;
  auto w = set_up(a, probe, st);
  auto& ctx = w->ctx();
  w->open_window();
  ctx.tracer().set_enabled(true);
  probe->reset();
  const std::size_t emitted0 = ctx.tracer().events_emitted();
  perf::EventClock clock(*probe, ctx.sim(), ctx.dag().tasks());
  // The traced pass runs the untraced pass's events, so the per-event
  // record never reallocates inside a timed interval.
  clock.reserve(win.events);
  const auto t0 = Clock::now();
  ctx.sim().run_until([&clock] { return clock.tick(); });
  const double wall_t = seconds_between(t0, Clock::now());
  const perf::Outcome o = w->outcome();
  const std::uint64_t traced_digest = digest(*w, o);

  r.checks.outcome(ou);
  r.checks.expect(traced_digest == r.digest,
                  "traced digest equals the untraced digest");
  r.attempted = ou.issued;
  r.failed = ou.failed;
  r.job_samples = ou.delays.count();

  double covered = 0.0;
  for (int c = 0; c < perf::kNumClasses; ++c) covered += clock.seconds(c);
  const double coverage = ratio(covered, wall_t);
  r.checks.expect(coverage >= 0.95, "sim.class.coverage >= 0.95");

  std::vector<float> us = clock.event_us();
  auto pct = [&us](double q) -> double {
    if (us.empty()) return 0.0;
    const auto k =
        static_cast<std::ptrdiff_t>(q * static_cast<double>(us.size() - 1));
    std::nth_element(us.begin(), us.begin() + k, us.end());
    return us[static_cast<std::size_t>(k)];
  };
  auto per_event_us = [](double seconds, double events) {
    return ratio(seconds * 1e6, events);
  };
  auto n = [&probe](TraceKind k) {
    return static_cast<double>(probe->count(k));
  };
  auto add = [&r](std::string name, double value, const char* unit) {
    r.metrics.push_back({std::move(name), value, unit});
  };

  const auto events = static_cast<double>(win.events);
  add("sim.events", events, "count");
  add("sim.us_per_event", per_event_us(win.wall_s, events), "us");
  add("sim.event_us.p50", pct(0.50), "us");
  add("sim.event_us.p99", pct(0.99), "us");
  add("sim.event_us.max",
      us.empty() ? 0.0 : *std::max_element(us.begin(), us.end()), "us");
  add("sim.peak_pending_events",
      static_cast<double>(clock.peak_pending_events()), "count");
  add("sim.trace_overhead", ratio(wall_t, win.wall_s), "ratio");
  add("sim.slice_growth",
      ratio(per_event_us(win.slice_s.back(),
                         static_cast<double>(win.slice_events.back())),
            per_event_us(win.slice_s.front(),
                         static_cast<double>(win.slice_events.front()))),
      "ratio");
  add("sim.class.coverage", coverage, "fraction");
  for (int c = 0; c < perf::kNumClasses; ++c) {
    const std::string base =
        std::string("sim.class.") + perf::event_class_name(c);
    const auto count = static_cast<double>(clock.count(c));
    add(base + ".count", count, "count");
    add(base + ".share", ratio(clock.seconds(c), wall_t), "fraction");
    add(base + ".us_per_event", per_event_us(clock.seconds(c), count), "us");
  }
  add("sim.overlay.evicting.share", ratio(clock.evicting_seconds(), wall_t),
      "fraction");
  add("sim.overlay.faultback.share", ratio(clock.faultback_seconds(), wall_t),
      "fraction");

  const double launched = n(TraceKind::kTaskLaunch);
  const double finished = n(TraceKind::kTaskFinish);
  const double hits = n(TraceKind::kBlockHit);
  const double inserts = n(TraceKind::kBlockInsert);
  const double evictions = n(TraceKind::kBlockEvict);
  const auto calls = static_cast<double>(w->submit_calls());
  add("sched.submit.calls", calls, "count");
  add("sched.submit.us_per_call", per_event_us(w->submit_seconds(), calls),
      "us");
  add("sched.tasks_launched", launched, "count");
  add("sched.tasks_finished", finished, "count");
  add("sched.task_failures", n(TraceKind::kTaskFail), "count");
  add("sched.task_retries", n(TraceKind::kTaskRetry), "count");
  add("sched.stage_resubmits", n(TraceKind::kStageResubmit), "count");
  add("sched.wasted_launch_frac",
      ratio(std::max(0.0, launched - finished), launched), "fraction");
  add("sched.node_local_frac",
      ratio(static_cast<double>(probe->node_local_finishes()), finished),
      "fraction");
  add("sched.peak_pending_sets",
      static_cast<double>(clock.peak_pending_sets()), "count");
  add("sched.plan.block_hit_frac",
      ratio(hits, hits + n(TraceKind::kBlockMiss)), "fraction");
  add("sched.plan.fault_backs", n(TraceKind::kBlockFaultBack), "count");
  add("sched.advisor.auto_caches", n(TraceKind::kAutoCache), "count");
  add("sched.advisor.auto_frees", n(TraceKind::kAutoFree), "count");
  add("sched.hedge.issued", n(TraceKind::kHedgeIssued), "count");
  add("sched.hedge.win_frac",
      ratio(static_cast<double>(probe->hedges_won()),
            n(TraceKind::kHedgeResolved)),
      "fraction");

  add("cluster.block_inserts", inserts, "count");
  add("cluster.block_evictions", evictions, "count");
  add("cluster.evictions_per_insert", ratio(evictions, inserts), "ratio");
  add("cluster.spill_evictions",
      static_cast<double>(probe->spilled_evictions()), "count");
  add("cluster.demotions", n(TraceKind::kBlockDemote), "count");
  add("cluster.executors_lost", n(TraceKind::kExecutorLost), "count");
  add("cluster.corruptions_injected", n(TraceKind::kBlockCorrupt), "count");
  add("cluster.corruptions_detected", n(TraceKind::kCorruptionDetected),
      "count");
  add("cluster.slowness_band_changes", n(TraceKind::kSlownessBand), "count");

  const auto forwarded = static_cast<double>(probe->forwarded());
  add("obs.trace_events",
      static_cast<double>(ctx.tracer().events_emitted() - emitted0), "count");
  add("obs.sink.ring.us_per_event",
      per_event_us(probe->ring_seconds(), forwarded), "us");
  add("obs.sink.aggregate.us_per_event",
      per_event_us(probe->aggregate_seconds(), forwarded), "us");
  add("obs.sink.share",
      ratio(probe->ring_seconds() + probe->aggregate_seconds(), wall_t),
      "fraction");

  add("api.context_s", median({su.context_s, st.context_s}), "s");
  add("api.ingest_s", median({su.ingest_s, st.ingest_s}), "s");
  add("api.warmup_s", median({su.warmup_s, st.warmup_s}), "s");
  add("jobs_failed_frac",
      ratio(static_cast<double>(ou.failed), static_cast<double>(ou.issued)),
      "fraction");
  return r;
}

void usage() {
  std::fprintf(stderr,
               "usage: stark_perf --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\nworkloads:");
  for (const auto& n : perf::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::atoi(argv[++i]);
    } else {
      return false;
    }
  }
  const auto& names = perf::workload_names();
  return std::find(names.begin(), names.end(), a.workload) != names.end() &&
         (a.trace == 0 || a.trace == 1) && a.seconds >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return 2;
  }
  Result r;
  try {
    r = a.trace == 1 ? traced(a) : untraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[stark_perf] %s: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "%s %s %.17g %s", a.workload.c_str(), m.name.c_str(),
                 m.value, m.unit);
    if (m.name.rfind("job_p", 0) == 0) {
      std::fprintf(stderr, " (n=%zu)", r.job_samples);
    }
    std::fprintf(stderr, "\n");
  }
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"smoke\": %s, \"trace\": %d, \"digest\": \"%016llx\", "
              "\"job_samples\": %zu}}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.smoke ? "true" : "false", a.trace,
              static_cast<unsigned long long>(r.digest), r.job_samples);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.checks.ok ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
