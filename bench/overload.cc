// Overload protection (PR 6): goodput under open-loop surge arrivals, with
// the admission/deadline/backpressure stack on vs off.
//
// The Fig 19-style operating point — a streamed taxi+tweet collection with
// interactive cogroup sessions (QueryWorkload cache_cogroup mode) — is
// driven open loop: arrivals never back off, and a surge multiplier scales
// the offered rate across the sweep. Each multiplier runs twice:
//
//   off  ContextOptions::overload at defaults. Every session is dispatched
//        on arrival; past saturation the run queue grows without bound,
//        delays stretch with the backlog, and sessions blow through the
//        SLO — goodput (sessions completed within the SLO, per second)
//        collapses even though raw completions keep trickling.
//   on   admission control (shed-oldest, bounded in-flight + pending),
//        whole-job deadlines at the SLO, and the memory-pressure monitor
//        feeding intake backpressure. Excess sessions are refused in O(1)
//        at submit; admitted ones run on an unclogged cluster and finish
//        inside the SLO — goodput plateaus at capacity.
//
// The headline "graceful" bit asserts the plateau: protection-on goodput at
// 2x saturation must hold >= 0.8x its value at saturation (CI enforces the
// same bound on the smoke artifact). Output is one JSON object; simulated
// time only, so bytes are identical across runs at equal flags.
//
//   --smoke    down-scaled sweep (two multipliers, short window) for CI
//   --pinned   single 2x point, both modes, tiny window — the bit-identity
//              scenario in scripts/bit_identity.sh
//   --backlog  a deep FIFO backlog with no protection at all; prints only
//              simulated counters (see run_backlog), also pinned there
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/metrics.h"
#include "bench_util.h"
#include "streaming/query_workload.h"

using namespace stark;

namespace {

constexpr int kServers = 8;
constexpr int kPartitions = 32;
constexpr int kGridBits = 6;
constexpr Key kDomain = 64 * 64;
constexpr double kRamMb = 256.0;       // cache << retention: evictions flow
double g_base_rate = 8.0;              // sessions/s at multiplier 1.0
                                       // (~saturation for this cluster)
constexpr double kSloSeconds = 8.0;

struct SweepPoint {
  double multiplier = 1.0;
  SimTime window = 450.0;  // arrival window length
};

struct ModeResult {
  int issued = 0;
  int completed = 0;
  int completed_within_slo = 0;
  int failed = 0;
  double goodput_per_s = 0.0;
  double mean_delay_ms = 0.0;
  double p99_delay_ms = 0.0;
  OverloadStats overload;
  long long evictions = 0;
};

ModeResult run_point(const SweepPoint& p, bool protect) {
  ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkH, kServers);
  opts.detail_task_metrics = false;
  opts.locality_wait = 0.3;
  opts.groups.initial_groups = 16;
  opts.groups.min_group_bytes = 1 * kMiB;
  opts.groups.max_group_bytes = 48 * kMiB;
  opts.cluster.server.ram = kRamMb * kMiB;
  if (protect) {
    opts.overload.admission_enabled = true;
    opts.overload.policy = AdmissionPolicy::kShedOldest;
    opts.overload.max_in_flight_jobs = 12;
    opts.overload.max_pending_jobs = 8;  // short queue: bounded waits
    opts.overload.deadline_seconds = kSloSeconds;
    opts.overload.red_intake_factor = 0.5;
    opts.overload.pressure.enabled = true;
  }
  Context ctx(opts);
  MetricsCollector metrics(ctx.cluster());
  PartitionerPtr shared = ctx.collection_partitioner(kPartitions, kDomain);

  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = 1.0e6;
  auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
  auto tweets = std::make_shared<trace::TweetGen>(trace::TweetGen::Config{});

  StreamConfig sc;
  sc.batch_interval = 300.0;
  sc.retention = 1800.0;
  sc.ns = "stream";
  GroupConfig gc = opts.groups;
  gc.grouped = ctx.run_config().grouped;
  gc.extendable = ctx.run_config().extendable;
  ctx.groups().register_namespace("stream", shared, gc);
  StreamContext stream(
      ctx.dag(), ctx.groups(), sc,
      [taxi, tweets](int /*step*/, SimTime) {
        return tweets->merge_with_taxi(taxi->histogram(12.0, 2, 1.0 / 12.0));
      },
      [shared](const KeyHistogram&, int) { return shared; });
  stream.start(9);  // 45 min of 5-min batches; queries start warm

  const double t0 = 0.75 * sc.retention;  // 1350 s
  const double t1 = t0 + p.window;
  QueryWorkload::Config qc;
  qc.rate = [](SimTime) { return g_base_rate; };
  qc.surge_factor = p.multiplier;  // open-loop surge across the window
  qc.surge_start = t0;
  qc.surge_end = t1;
  qc.max_window_timesteps = 4;
  qc.min_window_timesteps = 2;
  qc.grid_bits = kGridBits;
  qc.region_cells = 16;
  qc.cache_cogroup = true;  // two-job interactive sessions
  qc.slo_seconds = kSloSeconds;
  qc.tenant = "queries";
  qc.seed = 17;
  QueryWorkload wl(stream, ctx.dag(), qc,
                   [shared](const std::vector<DatasetPtr>&) { return shared; });
  wl.start(t0, t1);
  // Bounded drain: an unprotected backlog past saturation would otherwise
  // hold the clock for hours finishing sessions that already missed the
  // SLO by miles.
  ctx.sim().run(t1 + 600.0);

  ModeResult r;
  r.issued = wl.issued();
  r.completed = wl.completed();
  r.completed_within_slo = wl.completed_within_slo();
  r.failed = wl.failed();
  r.goodput_per_s = wl.completed_within_slo() / p.window;
  if (wl.completed() > 0) {
    r.mean_delay_ms = wl.delays().mean() * 1e3;
    r.p99_delay_ms = wl.delays().percentile(0.99) * 1e3;
  }
  r.overload = ctx.dag().overload_stats();
  r.evictions = metrics.cache_evictions();
  return r;
}

void emit_mode(bench::JsonEmitter& json, const char* key, const ModeResult& r) {
  json.begin_object(key);
  json.field("issued", r.issued);
  json.field("completed", r.completed);
  json.field("completed_within_slo", r.completed_within_slo);
  json.field("failed", r.failed);
  json.field("goodput_per_s", r.goodput_per_s, "%.4f");
  json.field("mean_delay_ms", r.mean_delay_ms, "%.2f");
  json.field("p99_delay_ms", r.p99_delay_ms, "%.2f");
  json.field("jobs_admitted", r.overload.jobs_admitted);
  json.field("jobs_queued", r.overload.jobs_queued);
  json.field("jobs_rejected", r.overload.jobs_rejected);
  json.field("jobs_shed", r.overload.jobs_shed);
  json.field("deadline_exceeded", r.overload.deadline_exceeded);
  json.field("pressure_transitions", r.overload.pressure_transitions);
  json.field("red_entries", r.overload.red_entries);
  json.field("evictions", r.evictions);
  json.end_object();
}

// A small cluster buried under a deep FIFO of single-stage cogroup jobs:
// submissions outpace capacity ~10x, so over a thousand task sets queue
// while every completion fires a scheduling pass. Pins the offer loop and
// set retirement under deep backlog.
int run_backlog() {
  constexpr int kStormServers = 8;
  constexpr int kStormPartitions = 24;
  constexpr int kJobs = 1200;
  constexpr double kSubmitWindow = 24.0;  // ~50 jobs/s offered

  ContextOptions o = bench::paper_cluster(ConfigKind::kStarkH, kStormServers);
  o.cluster.server.cores = 4;
  o.detail_task_metrics = false;
  Context ctx(o);
  auto part = ctx.collection_partitioner(kStormPartitions, 4096);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(ctx.ingest("storm" + std::to_string(i),
                                bench::wiki_hourly(i, 150 * kMiB), part,
                                "storm"));
  }

  const SimTime t0 = ctx.sim().now();
  int completed = 0;
  int aborted = 0;
  std::size_t peak_sets = 0;
  for (int q = 0; q < kJobs; ++q) {
    ctx.sim().at(t0 + kSubmitWindow * q / kJobs, [&] {
      auto cg = Dataset::cogroup(inputs, part, "storm.cogroup");
      auto filtered = cg->filter({.selectivity = 0.1}, "storm.filter");
      ctx.dag().submit(filtered, ActionType::kCount, {},
                       [&](const JobResult& res) {
                         res.completed ? ++completed : ++aborted;
                       });
      peak_sets = std::max(peak_sets, ctx.dag().tasks().pending_task_sets());
    });
  }
  ctx.sim().run();

  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "overload");
  json.field("mode", "backlog");
  json.field("sim_seconds", ctx.sim().now() - t0);
  json.field("events_executed",
             static_cast<unsigned long long>(ctx.sim().executed_events()));
  json.field("tasks_completed", static_cast<unsigned long long>(
                                    ctx.dag().tasks().tasks_completed()));
  json.field("jobs_completed", completed);
  json.field("jobs_aborted", aborted);
  json.field("peak_pending_sets", static_cast<unsigned long long>(peak_sets));
  json.end_object();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool pinned = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--backlog") == 0) return run_backlog();
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--pinned") == 0) pinned = true;
    if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      g_base_rate = std::atof(argv[++i]);  // calibration escape hatch
    }
  }

  std::vector<SweepPoint> sweep;
  if (pinned) {
    sweep.push_back({2.0, 60.0});
  } else if (smoke) {
    sweep.push_back({1.0, 150.0});
    sweep.push_back({2.0, 150.0});
  } else {
    for (double m : {0.5, 1.0, 1.5, 2.0, 3.0}) sweep.push_back({m, 450.0});
  }

  double goodput_on_1x = -1.0, goodput_on_2x = -1.0;
  double goodput_off_1x = -1.0, goodput_off_2x = -1.0;
  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "overload");
  json.field("schema", 1);
  json.field("smoke", smoke);
  json.field("pinned", pinned);
  json.field("servers", kServers);
  json.field("ram_mb", kRamMb, "%.0f");
  json.field("base_rate_per_s", g_base_rate, "%.2f");
  json.field("slo_seconds", kSloSeconds, "%.2f");
  json.begin_array("sweep");
  for (const auto& p : sweep) {
    std::fprintf(stderr, "[overload] %.1fx offered load over %.0f s...\n",
                 p.multiplier, p.window);
    json.begin_object();
    json.field("multiplier", p.multiplier, "%.2f");
    json.field("window_s", p.window, "%.0f");
    const ModeResult off = run_point(p, /*protect=*/false);
    const ModeResult on = run_point(p, /*protect=*/true);
    emit_mode(json, "off", off);
    emit_mode(json, "on", on);
    json.end_object();
    if (p.multiplier == 1.0) {
      goodput_on_1x = on.goodput_per_s;
      goodput_off_1x = off.goodput_per_s;
    } else if (p.multiplier == 2.0) {
      goodput_on_2x = on.goodput_per_s;
      goodput_off_2x = off.goodput_per_s;
    }
  }
  json.end_array();
  // Headline only when the sweep contains both anchor points (not --pinned).
  if (goodput_on_1x >= 0.0 && goodput_on_2x >= 0.0) {
    const double plateau =
        goodput_on_1x > 0.0 ? goodput_on_2x / goodput_on_1x : 0.0;
    json.begin_object("headline");
    json.field("goodput_on_at_saturation", goodput_on_1x, "%.4f");
    json.field("goodput_on_at_2x", goodput_on_2x, "%.4f");
    json.field("plateau_ratio", plateau, "%.4f");
    json.field("goodput_off_at_saturation", goodput_off_1x, "%.4f");
    json.field("goodput_off_at_2x", goodput_off_2x, "%.4f");
    json.field("graceful", plateau >= 0.8);
    json.end_object();
  }
  json.end_object();
  return 0;
}
