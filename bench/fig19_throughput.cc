// Figure 19: system delay vs offered load, and throughput at the 800 ms cap.
//
// Merged taxi+tweet stream replayed at a constant rate; one timestep RDD
// per 5 minutes; each query cogroups a random time range and filters a
// random region. For each configuration we sweep the offered job rate and
// report the mean delay, then the throughput = highest offered rate whose
// mean delay stays below 800 ms.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "streaming/query_workload.h"

using namespace stark;

namespace {

constexpr int kPartitions = 64;
constexpr std::uint64_t kSampleSeedBase = 1000;
constexpr int kGridBits = 6;
constexpr Key kDomain = 64 * 64;

// Steady-state run at a fixed rate; returns the mean delay (seconds), or a
// huge value when the backlog explodes (queries do not finish).
double delay_at_rate(ConfigKind kind, double rate) {
  ContextOptions opts = bench::paper_cluster(kind, 40);
  opts.detail_task_metrics = false;
  // Interactive sub-second jobs: the delay-scheduling wait is tuned down
  // for every configuration alike (spark.locality.wait in practice).
  opts.locality_wait = 0.3;
  // 32 groups over 40 servers: the collection spreads while Stark-E still
  // packs ~2 partitions per task (its grouping "overhead" vs Stark-H).
  opts.groups.initial_groups = 32;
  opts.groups.min_group_bytes = 1 * kMiB;
  opts.groups.max_group_bytes = 48 * kMiB;
  Context ctx(opts);
  PartitionerPtr shared =
      kind == ConfigKind::kSparkR
          ? nullptr
          : ctx.collection_partitioner(kPartitions, kDomain);

  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = 1.0e6;
  auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
  auto tweets = std::make_shared<trace::TweetGen>(trace::TweetGen::Config{});

  StreamConfig sc;
  sc.batch_interval = 300.0;
  sc.retention = 3600.0;
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
      [taxi, tweets](int /*step*/, SimTime) {
        // Constant rate: fixed hour so volume/distribution stay unchanged.
        return tweets->merge_with_taxi(taxi->histogram(12.0, 2, 1.0 / 12.0));
      },
      [shared](const KeyHistogram& hist, int step) {
        // Spark-R: a fresh randomized sampling pass per timestep RDD.
        return shared != nullptr
                   ? shared
                   : PartitionerPtr(RangePartitioner::sample(
                         hist, kPartitions,
                         kSampleSeedBase + static_cast<std::uint64_t>(step)));
      });
  stream.start(10);  // warm a 10-step window

  QueryWorkload::Config qc;
  qc.rate = [rate](SimTime) { return rate; };
  qc.max_window_timesteps = 4;
  qc.min_window_timesteps = 2;
  qc.grid_bits = kGridBits;
  qc.region_cells = 16;
  qc.seed = 17;
  std::uint64_t query_seed = kSampleSeedBase + 500;
  QueryWorkload wl(
      stream, ctx.dag(), qc,
      [shared, &query_seed](const std::vector<DatasetPtr>& inputs) {
        // Spark-R cogroups sample their own partitioner per query too.
        return shared != nullptr
                   ? shared
                   : PartitionerPtr(RangePartitioner::sample(
                         inputs[0]->histogram(), kPartitions, ++query_seed));
      });
  // Steady-state methodology: a warm-up phase lets hotspot replicas form
  // (delay scheduling materializes copies of hot collection partitions)
  // before the measured window starts.
  QueryWorkload::Config warm_cfg = qc;
  warm_cfg.rate = [rate](SimTime) { return std::min(rate, 30.0); };
  warm_cfg.seed = 4242;
  QueryWorkload warmup(stream, ctx.dag(), warm_cfg,
                       [shared, &query_seed](const std::vector<DatasetPtr>& inputs) {
                         return shared != nullptr
                                    ? shared
                                    : PartitionerPtr(RangePartitioner::sample(
                                          inputs[0]->histogram(), kPartitions,
                                          ++query_seed));
                       });
  const double t0 = 2700.0;  // stream window warm (9 steps in)
  warmup.start(t0 - 90.0, t0);
  const double t1 = t0 + 60.0;
  wl.start(t0, t1);
  ctx.sim().run(t1 + 120.0);  // 2 min drain budget
  if (wl.completed() < wl.issued() || wl.completed() == 0) {
    return 1e9;  // saturated: backlog never drained
  }
  return wl.delays().mean();
}

// --slice <config> <rate>: one (configuration, rate) point with the exact
// same workload as the sweep, printed as full-precision JSON. Used by
// scripts/bit_identity.sh to pin simulated-time outputs byte-for-byte
// across engine changes (see docs/PERFORMANCE.md).
int run_slice(const char* config, double rate) {
  ConfigKind kind;
  if (std::strcmp(config, "spark-r") == 0) {
    kind = ConfigKind::kSparkR;
  } else if (std::strcmp(config, "spark-h") == 0) {
    kind = ConfigKind::kSparkH;
  } else if (std::strcmp(config, "stark-e") == 0) {
    kind = ConfigKind::kStarkE;
  } else if (std::strcmp(config, "stark-h") == 0) {
    kind = ConfigKind::kStarkH;
  } else {
    std::fprintf(stderr, "unknown config '%s' (want spark-r|spark-h|stark-e|stark-h)\n",
                 config);
    return 1;
  }
  const double d = delay_at_rate(kind, rate);
  std::printf("{\"bench\": \"fig19_slice\", \"config\": \"%s\", "
              "\"rate\": %.6f, \"mean_delay_s\": %.12f}\n",
              config, rate, d);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--slice") == 0) {
    return run_slice(argv[2], std::atof(argv[3]));
  }
  bench::print_header(
      "Fig 19 — System Delay vs Offered Load",
      "Merged taxi+tweet stream at constant rate; mean query delay while\n"
      "sweeping offered jobs/second. Throughput = max rate with mean delay\n"
      "< 800 ms. Paper: Spark-R 9 q/s @630ms, Spark-H 56 @405ms, Stark-H\n"
      "220 @109ms, Stark-E slightly behind Stark-H under static load.");

  struct Sweep {
    ConfigKind kind;
    std::vector<double> rates;
  };
  const Sweep sweeps[] = {
      {ConfigKind::kSparkR, {1, 3, 6, 9, 12}},
      {ConfigKind::kSparkH, {10, 20, 30, 45, 60}},
      {ConfigKind::kStarkE, {30, 60, 120, 180, 240}},
      {ConfigKind::kStarkH, {30, 60, 120, 180, 240, 300}},
  };

  Table t({"config", "jobs/s", "mean delay (ms)", ""});
  std::printf("(running sweeps; each point simulates 60s of load)\n\n");
  std::vector<std::pair<std::string, double>> throughput;
  for (const auto& sweep : sweeps) {
    double best_rate = 0.0;
    double best_delay = 0.0;
    for (double rate : sweep.rates) {
      std::fprintf(stderr, "[fig19] %s @ %.0f jobs/s...\n",
                   config_name(sweep.kind), rate);
      const double d = delay_at_rate(sweep.kind, rate);
      const bool ok = d < 0.8;
      t.add_row({config_name(sweep.kind), Table::num(rate, 0),
                 d >= 1e8 ? "saturated" : Table::num(d * 1e3, 0),
                 ok ? bench::bar(d * 1e3, 800.0, 16) : "> cap"});
      std::fflush(stdout);
      if (ok && rate > best_rate) {
        best_rate = rate;
        best_delay = d;
      }
    }
    throughput.emplace_back(config_name(sweep.kind), best_rate);
    std::printf("%s throughput @800ms cap: %.0f jobs/s (delay %.0f ms)\n",
                config_name(sweep.kind), best_rate, best_delay * 1e3);
  }
  std::printf("\n");
  t.print();

  double spark_r = 0, spark_h = 0, stark_h = 0, stark_e = 0;
  for (const auto& [name, tp] : throughput) {
    if (name == std::string("Spark-R")) spark_r = tp;
    if (name == std::string("Spark-H")) spark_h = tp;
    if (name == std::string("Stark-H")) stark_h = tp;
    if (name == std::string("Stark-E")) stark_e = tp;
  }
  const bool ok =
      spark_r < spark_h && spark_h < stark_h && stark_e >= 0.5 * stark_h;
  std::printf(
      "\nShape check: Spark-R << Spark-H << Stark-H (paper: 9/56/220), "
      "Stark-E within ~25%% of Stark-H under static load: %s\n",
      ok ? "OK" : "MISMATCH");
  std::printf("Measured throughput ratio Stark-H/Spark-H: %.1fx (paper ~4x "
              "delay, ~6x total system throughput)\n",
              spark_h > 0 ? stark_h / spark_h : 0.0);
  return ok ? 0 : 1;
}
