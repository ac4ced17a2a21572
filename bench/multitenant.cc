// Multi-tenant fairness (PR 7): staggered per-tenant surges against one
// shared in-memory dataset collection, with weighted fair-share task
// scheduling on vs off.
//
// Every tenant runs the same interactive-session workload (QueryWorkload
// cache_cogroup mode: two cogroup-count jobs per session) over one shared
// streamed taxi+tweet collection, at a low background rate plus one hard
// surge. The surges are staggered: tenant i surges during
// [t0 + i*stride, t0 + i*stride + surge_len), several tenants overlapping
// at any instant, and the aggregate offered load sits past saturation for
// the whole window. That shape is the fairness acid test:
//
//   off  Plain FIFO task scheduling. The cluster-wide backlog grows for
//        the whole window, and a tenant's sessions wait behind every
//        session submitted before its surge — mean delay grows with the
//        tenant's surge slot, so the max/min spread of per-tenant mean
//        delays stretches far past 1.
//   on   Weighted fair-share (equal weights here). A tenant entering its
//        surge holds zero running cores, so the scheduler serves it
//        immediately at ~1/k of the cluster (k = tenants with ready
//        work): per-tenant delay is governed by the tenant's own demand,
//        not by when it surged, and the spread collapses toward 1.
//
// Headline scale (no flags): 1000 servers / 8000 cores, 100 tenants,
// >= 10k sessions. Reported per mode: session delay mean/p99, Jain's
// fairness index over per-tenant mean delays (the fairness headline —
// bounded in (1/n, 1], population-weighted, robust to one outlier tenant,
// unlike the max/min spread which is also reported), and goodput
// (sessions completed inside the SLO per second).
// Output is one JSON object; simulated time only, so bytes are identical
// across runs at equal flags.
//
//   --smoke   down-scaled run (24 servers, 12 tenants, ~7.7k sessions)
//             for CI; the CI job asserts jain(on) stays above a pinned
//             threshold and above jain(off)
//   --rate    per-tenant surge rate override (sessions/s), calibration
//             escape hatch
//   --pinned  a fixed fair-share run that prints only simulated counters
//             (see run_pinned), for the golden digest in
//             scripts/bit_identity.sh
#include <algorithm>
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

constexpr int kGridBits = 6;
constexpr Key kDomain = 64 * 64;
constexpr double kSloSeconds = 30.0;
constexpr double kBackgroundRate = 0.02;  // sessions/s per idle tenant

struct Scale {
  int servers = 1000;
  int tenants = 100;
  int partitions = 128;
  double window = 440.0;     // staggered-surge span
  double surge_rate = 6.0;   // sessions/s per tenant while surging
  double overlap = 4.0;      // concurrent surgers: surge_len = overlap*stride
  double drain = 1200.0;     // grace past the window before the run is cut
  double events_per_hour = 4.0e7;  // stream volume: sized so the surge
                                   // aggregate saturates the cluster
};

struct TenantOutcome {
  std::string name;
  int issued = 0;
  int completed = 0;
  int within_slo = 0;
  double mean_delay = 0.0;
  double p99_delay = 0.0;
};

struct ModeResult {
  int issued = 0;
  int completed = 0;
  int within_slo = 0;
  int failed = 0;
  double goodput_per_s = 0.0;
  double mean_delay_ms = 0.0;
  double p99_delay_ms = 0.0;
  double spread = 1.0;  // max/min per-tenant mean delay, completed tenants
  double jain = 1.0;    // Jain's index over per-tenant mean delays
  std::vector<TenantOutcome> tenants;
};

std::string tenant_name(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%03d", i);
  return buf;
}

ModeResult run_mode(const Scale& s, bool fair) {
  ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkH, s.servers);
  opts.detail_task_metrics = false;
  opts.locality_wait = 0.3;
  opts.groups.initial_groups = 16;
  opts.groups.min_group_bytes = 1 * kMiB;
  opts.groups.max_group_bytes = 48 * kMiB;
  opts.tenants.fair_share = fair;
  for (int i = 0; i < s.tenants; ++i) {
    opts.tenants.tenants.push_back({tenant_name(i), 1.0, 0.0, 0, 0});
  }
  Context ctx(opts);
  PartitionerPtr shared = ctx.collection_partitioner(s.partitions, kDomain);

  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = s.events_per_hour;
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
  const double t1 = t0 + s.window;
  const double stride = s.window / s.tenants;
  const double surge_len = s.overlap * stride;

  std::vector<std::unique_ptr<QueryWorkload>> workloads;
  workloads.reserve(static_cast<std::size_t>(s.tenants));
  for (int i = 0; i < s.tenants; ++i) {
    QueryWorkload::Config qc;
    // Time-varying rate instead of surge_factor, and the workload starts
    // exactly at its surge slot: the Poisson process draws its next gap at
    // the rate *current at the draw*, so a workload started at t0 on
    // background gaps (~1/kBackgroundRate seconds) would step right over a
    // later surge slot without ever sampling the high rate.
    const SimTime surge_start = t0 + i * stride;
    const SimTime surge_end = std::min(t1, surge_start + surge_len);
    const double surge_rate = s.surge_rate;
    qc.rate = [surge_start, surge_end, surge_rate](SimTime t) {
      return (t >= surge_start && t < surge_end) ? surge_rate
                                                 : kBackgroundRate;
    };
    qc.max_window_timesteps = 4;
    qc.min_window_timesteps = 2;
    qc.grid_bits = kGridBits;
    qc.region_cells = 16;
    qc.cache_cogroup = true;  // two-job interactive sessions
    qc.slo_seconds = kSloSeconds;
    qc.tenant = tenant_name(i);
    qc.seed = 1000 + static_cast<std::uint64_t>(i);
    workloads.push_back(std::make_unique<QueryWorkload>(
        stream, ctx.dag(), qc,
        [shared](const std::vector<DatasetPtr>&) { return shared; }));
    workloads.back()->start(surge_start, t1);
  }
  // Bounded drain: enough to finish the FIFO backlog at the calibrated
  // overload, without letting a miscalibrated run hold the clock forever.
  ctx.sim().run(t1 + s.drain);

  ModeResult r;
  std::vector<double> means;  // completed tenants, in tenant order
  for (int i = 0; i < s.tenants; ++i) {
    const QueryWorkload& wl = *workloads[i];
    TenantOutcome t;
    t.name = tenant_name(i);
    t.issued = wl.issued();
    t.completed = wl.completed();
    t.within_slo = wl.completed_within_slo();
    if (wl.completed() > 0) {
      t.mean_delay = wl.delays().mean();
      t.p99_delay = wl.delays().percentile(0.99);
      means.push_back(t.mean_delay);
    }
    r.issued += t.issued;
    r.completed += t.completed;
    r.within_slo += t.within_slo;
    r.failed += wl.failed();
    r.tenants.push_back(std::move(t));
  }
  r.spread = max_min_spread(means);
  // Jain's fairness index over per-tenant mean delays: 1.0 = perfectly
  // even, 1/n = one tenant absorbs all the delay. Unlike the max/min
  // spread this is bounded, population-weighted, and insensitive to a
  // single outlier tenant, so it is the fairness headline the CI gate pins.
  r.jain = jain_index(means);
  r.goodput_per_s = r.within_slo / s.window;
  Distribution all;
  for (const auto& wl : workloads) {
    for (double d : wl->delays().samples()) all.add(d);
  }
  if (!all.empty()) {
    r.mean_delay_ms = all.mean() * 1e3;
    r.p99_delay_ms = all.percentile(0.99) * 1e3;
  }
  return r;
}

void emit_mode(bench::JsonEmitter& json, const char* key, const Scale& s,
               const ModeResult& r) {
  json.begin_object(key);
  json.field("issued", r.issued);
  json.field("completed", r.completed);
  json.field("completed_within_slo", r.within_slo);
  json.field("failed", r.failed);
  json.field("goodput_per_s", r.goodput_per_s, "%.4f");
  json.field("mean_delay_ms", r.mean_delay_ms, "%.2f");
  json.field("p99_delay_ms", r.p99_delay_ms, "%.2f");
  json.field("tenant_delay_spread", r.spread, "%.4f");
  json.field("tenant_fairness_jain", r.jain, "%.4f");
  // The full per-tenant table only at smoke scale; at 100 tenants the
  // aggregate spread is the story and the table is noise.
  if (s.tenants <= 16) {
    json.begin_array("tenants");
    for (const TenantOutcome& t : r.tenants) {
      json.begin_object();
      json.field("tenant", t.name);
      json.field("issued", t.issued);
      json.field("completed", t.completed);
      json.field("completed_within_slo", t.within_slo);
      json.field("mean_delay_ms", t.mean_delay * 1e3, "%.2f");
      json.field("p99_delay_ms", t.p99_delay * 1e3, "%.2f");
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
}

// Fair-share bookkeeping at a high tenant count: 24 tenants with mixed
// weights submit 10 000 cogroup jobs round-robin against one collection,
// so every scheduling pass scans the per-tenant ready buckets and every
// completion rebalances the weighted shares.
int run_pinned() {
  constexpr int kServers = 16;
  constexpr int kPartitions = 32;
  constexpr int kTenants = 24;
  constexpr int kJobs = 10000;
  constexpr double kSpacing = 0.05;

  ContextOptions o = bench::paper_cluster(ConfigKind::kStarkH, kServers);
  o.detail_task_metrics = false;
  o.tenants.fair_share = true;
  for (int t = 0; t < kTenants; ++t) {
    char name[16];
    std::snprintf(name, sizeof(name), "t%02d", t);
    o.tenants.tenants.push_back({name, t % 3 == 0 ? 2.0 : 1.0, 0.0, 0, 0});
  }
  Context ctx(o);
  auto part = ctx.collection_partitioner(kPartitions, 4096);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(ctx.ingest("mt" + std::to_string(i),
                                bench::wiki_hourly(i, 200 * kMiB), part,
                                "mt"));
  }

  const SimTime t0 = ctx.sim().now();
  int completed = 0;
  int aborted = 0;
  for (int q = 0; q < kJobs; ++q) {
    ctx.sim().at(t0 + kSpacing * q, [&, q] {
      auto cg = Dataset::cogroup(inputs, part, "mt.cogroup");
      auto filtered = cg->filter({.selectivity = 0.1}, "mt.filter");
      ctx.dag().submit(filtered, ActionType::kCount,
                       SubmitOptions{.tenant = o.tenants.tenants[
                           static_cast<std::size_t>(q % kTenants)].name},
                       [&](const JobResult& res) {
                         res.completed ? ++completed : ++aborted;
                       });
    });
  }
  ctx.sim().run();

  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "multitenant");
  json.field("mode", "pinned");
  json.field("sim_seconds", ctx.sim().now() - t0);
  json.field("events_executed",
             static_cast<unsigned long long>(ctx.sim().executed_events()));
  json.field("tasks_completed", static_cast<unsigned long long>(
                                    ctx.dag().tasks().tasks_completed()));
  json.field("jobs_completed", completed);
  json.field("jobs_aborted", aborted);
  json.end_object();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double rate_override = 0.0;
  Scale s;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pinned") == 0) return run_pinned();
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      rate_override = std::atof(argv[++i]);  // calibration escape hatch
    }
  }
  if (smoke) {
    s.servers = 24;
    s.tenants = 12;
    s.partitions = 48;
    s.window = 120.0;
    s.surge_rate = 18.0;
    s.drain = 600.0;
    s.events_per_hour = 1.0e6;
  }
  if (rate_override > 0.0) s.surge_rate = rate_override;

  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "multitenant");
  json.field("schema", 1);
  json.field("smoke", smoke);
  json.field("servers", s.servers);
  json.field("cores", s.servers * 8);
  json.field("tenants", s.tenants);
  json.field("window_s", s.window, "%.0f");
  json.field("surge_rate_per_s", s.surge_rate, "%.2f");
  json.field("slo_seconds", kSloSeconds, "%.2f");

  std::fprintf(stderr, "[multitenant] fair-share off...\n");
  const ModeResult off = run_mode(s, /*fair=*/false);
  std::fprintf(stderr, "[multitenant] fair-share on...\n");
  const ModeResult on = run_mode(s, /*fair=*/true);
  emit_mode(json, "fair_off", s, off);
  emit_mode(json, "fair_on", s, on);

  json.begin_object("headline");
  json.field("sessions", off.issued);
  json.field("spread_off", off.spread, "%.4f");
  json.field("spread_on", on.spread, "%.4f");
  json.field("jain_off", off.jain, "%.4f");
  json.field("jain_on", on.jain, "%.4f");
  json.field("goodput_off_per_s", off.goodput_per_s, "%.4f");
  json.field("goodput_on_per_s", on.goodput_per_s, "%.4f");
  json.field("p99_off_ms", off.p99_delay_ms, "%.2f");
  json.field("p99_on_ms", on.p99_delay_ms, "%.2f");
  json.field("fairness_improved", on.jain > off.jain);
  json.end_object();
  json.end_object();
  return 0;
}
