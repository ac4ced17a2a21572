// Figure 7: the partition-number trade-off.
//
// Sweeps the HashPartitioner argument of the Fig 1 job from 1 to 10^5.
// Few partitions underuse the cluster; many partitions drown the driver in
// scheduling overhead — the U-shape of the paper's Fig 7.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

int main() {
  bench::print_header(
      "Fig 7 — Partition Number Trade-Off",
      "Delay of C.count (Fig 1 pipeline) as the number of partitions grows.");

  Table t({"partitions", "delay (s)", ""});
  double maxd = 0.0;
  std::vector<std::pair<int, double>> rows;
  for (int parts : {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 100000}) {
    ContextOptions opts = bench::paper_cluster(ConfigKind::kSparkH, 8);
    opts.detail_task_metrics = false;
    Context ctx(opts);
    auto hist = std::make_shared<const KeyHistogram>(
        bench::wiki_hourly(12, 700 * kMiB));
    auto A = Dataset::source("A", hist, 6)->map({}, "A.map");
    auto B = A->partition_by(std::make_shared<HashPartitioner>(parts));
    auto C = B->filter({.selectivity = 0.02}, "C");
    const double d = ctx.count(C).delay;
    rows.emplace_back(parts, d);
    maxd = std::max(maxd, d);
  }
  double best = 1e18;
  int best_parts = 0;
  for (const auto& [parts, d] : rows) {
    t.add_row({std::to_string(parts), Table::num(d, 2), bench::bar(d, maxd)});
    if (d < best) {
      best = d;
      best_parts = parts;
    }
  }
  t.print();
  const bool ok = best_parts > 1 && best_parts < 65536 &&
                  rows.front().second > best && rows.back().second > best;
  std::printf(
      "\nShape check: U-curve with minimum at %d partitions (paper: minimum "
      "around 10^2-10^3, ~20s at both extremes): %s\n",
      best_parts, ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
