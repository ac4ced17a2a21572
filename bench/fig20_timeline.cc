// Figure 20: job delay over a 24-hour replay at real trace speed.
//
// The taxi+tweet stream is replayed with its diurnal rate (data volume per
// 5-minute timestep varies over the day); emulators hold the query load at
// 20 jobs/s. Paper: Spark-H's delay blows past 800 ms at the data peak,
// Stark-H stays below ~200 ms, Stark-E scales out as volume grows and
// outperforms under heavy load despite its grouping overhead.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "streaming/query_workload.h"

using namespace stark;

namespace {

constexpr int kPartitions = 64;
constexpr int kGridBits = 6;
constexpr Key kDomain = 64 * 64;
constexpr double kHours = 24.0;
constexpr double kJobRate = 20.0;

// To keep the bench tractable we sample each hour: one 5-minute burst of
// queries per simulated hour rather than 24h of continuous 20 jobs/s.
std::vector<double> run_timeline(ConfigKind kind) {
  ContextOptions opts = bench::paper_cluster(kind, 40);
  opts.detail_task_metrics = false;
  opts.locality_wait = 0.3;  // interactive tuning, all configs alike
  opts.groups.initial_groups = 16;
  opts.groups.min_group_bytes = 2 * kMiB;
  // Nadir hours fit in 16 groups; peak hours push group sizes past the
  // bound, splitting the hot ones => Stark-E scales out when it matters.
  opts.groups.max_group_bytes = 10 * kMiB;
  opts.groups.window = 3;
  Context ctx(opts);
  auto shared = ctx.collection_partitioner(kPartitions, kDomain);

  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = 1.0e6;
  tc.diurnal_amplitude = 0.6;
  auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
  auto tweets = std::make_shared<trace::TweetGen>(trace::TweetGen::Config{});

  StreamConfig sc;
  sc.batch_interval = 300.0;
  sc.retention = 3.0 * 3600.0;
  const RunConfig& rc = ctx.run_config();
  if (rc.colocate) {
    sc.ns = "stream";
    GroupConfig gc = opts.groups;
    gc.grouped = rc.grouped;
    gc.extendable = rc.extendable;
    ctx.groups().register_namespace("stream", shared, gc);
  }
  StreamContext stream(
      ctx.dag(), ctx.groups(), sc,
      [taxi, tweets](int /*step*/, SimTime t) {
        const double hour = t / 3600.0;
        return tweets->merge_with_taxi(taxi->histogram(
            std::fmod(hour, 24.0), 4 + (static_cast<int>(hour / 24.0) % 7),
            1.0 / 12.0));
      },
      [shared](const KeyHistogram&, int) { return shared; });
  stream.start(static_cast<int>(kHours * 12.0));

  QueryWorkload::Config qc;
  qc.rate = [](SimTime) { return kJobRate; };
  qc.max_window_timesteps = 8;   // random ranges within the 3 h window
  qc.min_window_timesteps = 2;
  qc.grid_bits = kGridBits;
  qc.region_cells = 16;
  qc.seed = 23;
  QueryWorkload wl(stream, ctx.dag(), qc,
                   [shared](const std::vector<DatasetPtr>&) { return shared; });
  // One 2-minute query burst per hour, starting after the first hour.
  for (int h = 1; h < static_cast<int>(kHours); ++h) {
    wl.start(static_cast<double>(h) * 3600.0,
             static_cast<double>(h) * 3600.0 + 120.0);
  }
  ctx.sim().run(kHours * 3600.0 + 1800.0);

  // Per-hour mean delay.
  std::vector<double> out;
  const auto buckets =
      wl.delay_series().bucketize(0.0, kHours * 3600.0, 3600.0);
  for (const auto& b : buckets) {
    out.push_back(b.stats.count() > 0 ? b.stats.mean() : 0.0);
  }
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig 20 — Job Delay over Time (24h replay, 20 jobs/s)",
      "Mean query delay per hour of the replayed day (ms). The data rate\n"
      "follows the taxi trace's diurnal curve; the query rate is constant.");

  const auto spark_h = run_timeline(ConfigKind::kSparkH);
  const auto stark_h = run_timeline(ConfigKind::kStarkH);
  const auto stark_e = run_timeline(ConfigKind::kStarkE);

  Table t({"hour", "Spark-H (ms)", "Stark-H (ms)", "Stark-E (ms)"});
  double spark_peak = 0.0, stark_h_peak = 0.0, stark_e_peak = 0.0;
  for (std::size_t h = 1; h < spark_h.size(); ++h) {
    if (spark_h[h] == 0.0 && stark_h[h] == 0.0) continue;
    t.add_row({std::to_string(h), Table::num(spark_h[h] * 1e3, 0),
               Table::num(stark_h[h] * 1e3, 0),
               Table::num(stark_e[h] * 1e3, 0)});
    spark_peak = std::max(spark_peak, spark_h[h]);
    stark_h_peak = std::max(stark_h_peak, stark_h[h]);
    stark_e_peak = std::max(stark_e_peak, stark_e[h]);
  }
  t.print();

  std::printf("\nPeaks: Spark-H %.0f ms, Stark-H %.0f ms, Stark-E %.0f ms\n",
              spark_peak * 1e3, stark_h_peak * 1e3, stark_e_peak * 1e3);
  const bool ok = stark_h_peak < spark_peak && stark_e_peak < spark_peak;
  std::printf(
      "Shape check: Stark peaks well below Spark-H's peak (paper: Spark-H\n"
      "surpasses 800 ms at the data peak; Stark-H stays below 200 ms;\n"
      "Stark-E scales out under the heaviest load): %s\n",
      ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
