// Figures 13, 14, 15: extendable partitioning under skewed distributions.
//
// Three collections of three hourly Wikipedia RDDs each: RDDs 1-3 near
// uniform, 4-6 and 7-9 increasingly skewed. Configurations: Stark-S (static
// range partitions + co-locality), Stark-E (extendable groups), Spark-R
// (fresh RangePartitioner per RDD).
//
// Fig 13: task input sizes (per collection partition / group).
// Fig 14: job delay of the first vs second cogroup job per collection.
// Fig 15: min/median/max task delay with the shuffle share, cogroup 4-6.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

namespace {

constexpr Bytes kHourBytes = 600 * kMiB;
constexpr int kPartitions = 64;
constexpr Key kDomain = 4096;

// Spatial hot-prefix skew per collection: RDDs 1-3 near uniform, 4-6 and
// 7-9 increasingly concentrated (paper: hourly distributions drift).
double skew_for_collection(int c) {  // c = 0,1,2
  return c == 0 ? 0.0 : (c == 1 ? 2.0 : 4.5);
}

// Volume grows within a collection (peak hours carry ~2x nadir data, per
// the Wikipedia analysis [27]), so later reports split groups after the
// earlier RDDs were already cached — Fig 14's "1st job" effect.
double volume_factor(int i) { return i == 0 ? 0.7 : (i == 1 ? 1.0 : 1.45); }

struct CollectionRun {
  std::vector<double> unit_bytes;  // per scheduling unit, summed over RDDs
  double first_job = 0.0;
  double second_job = 0.0;
  std::vector<double> task_totals;        // of the 2nd job
  std::vector<double> task_shuffle;       // shuffle-read share per task
};

struct ConfigRun {
  std::string name;
  std::vector<CollectionRun> collections;
};

ConfigRun run_one(ConfigKind kind) {
  ConfigRun out;
  out.name = config_name(kind);
  ContextOptions opts = bench::paper_cluster(kind, 8);
  opts.groups.initial_groups = 8;
  opts.groups.min_group_bytes = 30 * kMiB;
  opts.groups.max_group_bytes = 280 * kMiB;
  opts.groups.window = 3;
  Context ctx(opts);

  for (int c = 0; c < 3; ++c) {
    CollectionRun run;
    std::vector<DatasetPtr> inputs;
    PartitionerPtr shared =
        kind == ConfigKind::kSparkR
            ? nullptr
            : ctx.collection_partitioner(kPartitions, kDomain);
    for (int i = 0; i < 3; ++i) {
      trace::WikiTraceGen::Config wc;
      wc.num_urls = kDomain;
      auto hist = trace::WikiTraceGen(wc).histogram_spatial(
          kHourBytes * volume_factor(i), skew_for_collection(c));
      PartitionerPtr part =
          shared != nullptr ? shared
                            : PartitionerPtr(RangePartitioner::sample(
                                  hist, kPartitions,
                                  static_cast<std::uint64_t>(c * 3 + i + 1)));
      inputs.push_back(ctx.ingest(
          "c" + std::to_string(c) + "r" + std::to_string(i), std::move(hist),
          part, "wiki"));
    }
    // Task input sizes per scheduling unit (Fig 13).
    const auto units = ctx.groups().units_for(*inputs.back());
    for (const auto& u : units) {
      double b = 0.0;
      for (const auto& ds : inputs) {
        for (int p = u.lo; p < u.hi; ++p) {
          b += ds->partition_bytes()[static_cast<std::size_t>(p)];
        }
      }
      run.unit_bytes.push_back(b);
    }
    // First and second cogroup jobs (Fig 14).
    PartitionerPtr qpart =
        shared != nullptr
            ? shared
            : PartitionerPtr(RangePartitioner::sample(
                  inputs[0]->histogram(), kPartitions,
                  static_cast<std::uint64_t>(100 + c)));
    auto cg1 = Dataset::cogroup(inputs, qpart);
    run.first_job = ctx.count(cg1->filter({.selectivity = 0.01})).delay;
    auto cg2 = Dataset::cogroup(inputs, qpart);
    const auto r2 = ctx.count(cg2->filter({.selectivity = 0.01}));
    run.second_job = r2.delay;
    for (const auto& m : r2.tasks) {
      run.task_totals.push_back(m.duration());
      run.task_shuffle.push_back(m.shuffle_read);
    }
    out.collections.push_back(std::move(run));
  }
  return out;
}

std::string size_cells(const std::vector<double>& bytes) {
  // Compact visual: one glyph per unit, darkness by size decile.
  static const char* glyphs = " .:-=+*#%@";
  double mx = 0.0;
  for (double b : bytes) mx = std::max(mx, b);
  std::string s;
  for (double b : bytes) {
    const int g = mx > 0.0 ? std::min(9, static_cast<int>(b / mx * 9.999)) : 0;
    s.push_back(glyphs[g]);
  }
  return s;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig 13 — Task Input Data Size",
      "Each row: one collection of 3 RDDs; one glyph per scheduling unit\n"
      "(darker = larger input). Stark-S suffers skew; Stark-E re-groups;\n"
      "Spark-R balances via per-RDD bounds (but shuffles every job).");

  const auto stark_s = run_one(ConfigKind::kStarkS);
  const auto stark_e = run_one(ConfigKind::kStarkE);
  const auto spark_r = run_one(ConfigKind::kSparkR);

  for (const auto* cfg : {&stark_s, &stark_e, &spark_r}) {
    std::printf("%s (units per row: ", cfg->name.c_str());
    for (std::size_t c = 0; c < cfg->collections.size(); ++c) {
      std::printf("%zu%s", cfg->collections[c].unit_bytes.size(),
                  c + 1 < cfg->collections.size() ? "/" : ")\n");
    }
    const char* labels[] = {"RDD 1-3", "RDD 4-6", "RDD 7-9"};
    for (std::size_t c = 0; c < cfg->collections.size(); ++c) {
      std::printf("  %-8s |%s|\n", labels[c],
                  size_cells(cfg->collections[c].unit_bytes).c_str());
    }
    // Imbalance metric: max unit / mean unit.
    for (std::size_t c = 0; c < cfg->collections.size(); ++c) {
      const auto& ub = cfg->collections[c].unit_bytes;
      double mx = 0.0, total = 0.0;
      for (double b : ub) {
        mx = std::max(mx, b);
        total += b;
      }
      std::printf("  %-8s max/mean imbalance: %.2f\n", labels[c],
                  mx / (total / static_cast<double>(ub.size())));
    }
  }

  bench::print_header(
      "Fig 14 — Job Delay under Skewed Distribution",
      "1st job after group merges/splits vs following jobs. Paper: Spark-R"
      "\n>10s always (shuffles); Stark-S <4s but suffers skew; Stark-E pays"
      "\non the 1st job, then balances.");
  Table t({"config", "collection", "1st job (s)", "2nd job (s)"});
  const char* labels[] = {"RDD 1-3", "RDD 4-6", "RDD 7-9"};
  for (const auto* cfg : {&stark_e, &stark_s, &spark_r}) {
    for (std::size_t c = 0; c < cfg->collections.size(); ++c) {
      t.add_row({cfg->name, labels[c],
                 Table::num(cfg->collections[c].first_job, 2),
                 Table::num(cfg->collections[c].second_job, 2)});
    }
  }
  t.print();

  bench::print_header(
      "Fig 15 — Task Delay under Skewed Distribution (cogroup RDDs 4-6)",
      "min / median / max task delay; (shuffle) is the shuffle-read share of"
      "\nthe max task. Paper: Spark-R's delay is shuffle-dominated; Stark-S"
      "\nskews task completion times; Stark-E balances.");
  Table t3({"config", "min (s)", "mid (s)", "max (s)", "shuffle in max (s)"});
  for (const auto* cfg : {&stark_e, &stark_s, &spark_r}) {
    const auto& run = cfg->collections[1];
    Distribution d;
    double max_total = 0.0, max_shuffle = 0.0;
    for (std::size_t i = 0; i < run.task_totals.size(); ++i) {
      d.add(run.task_totals[i]);
      if (run.task_totals[i] > max_total) {
        max_total = run.task_totals[i];
        max_shuffle = run.task_shuffle[i];
      }
    }
    t3.add_row({cfg->name, Table::num(d.min(), 3), Table::num(d.median(), 3),
                Table::num(d.max(), 3), Table::num(max_shuffle, 3)});
  }
  t3.print();

  // Shape checks.
  const auto imb = [](const CollectionRun& r) {
    double mx = 0.0, total = 0.0;
    for (double b : r.unit_bytes) {
      mx = std::max(mx, b);
      total += b;
    }
    return mx / (total / static_cast<double>(r.unit_bytes.size()));
  };
  const bool balanced = imb(stark_e.collections[2]) <
                        0.7 * imb(stark_s.collections[2]);
  const bool first_vs_second =
      stark_e.collections[2].first_job > stark_e.collections[2].second_job;
  const bool spark_r_slowest =
      spark_r.collections[1].second_job > stark_s.collections[1].second_job &&
      spark_r.collections[1].second_job > stark_e.collections[1].second_job;
  std::printf(
      "\nShape checks: Stark-E rebalances skew (%s), 1st>2nd job after "
      "splits (%s), Spark-R slowest overall (%s)\n",
      balanced ? "OK" : "MISMATCH", first_vs_second ? "OK" : "MISMATCH",
      spark_r_slowest ? "OK" : "MISMATCH");
  return balanced && first_vs_second && spark_r_slowest ? 0 : 1;
}
