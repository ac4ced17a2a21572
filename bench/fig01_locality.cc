// Figure 1(b): data locality benefits on a single dataset.
//
// Reproduces the motivating measurement: C.count pays two stages over a
// 700 MB text file; D.count on the cached parent is near-instant; D-.count
// without the cache recomputes the stage from the reduce phase of B.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

int main() {
  bench::print_header(
      "Fig 1(b) — Data Locality Benefits",
      "700 MB text file, map -> partitionBy(hash,2) -> filter chains.\n"
      "C: first count (two stages). D: count on cached parent.\n"
      "D-: same count with the cache removed (locality violated).");

  ContextOptions opts = bench::paper_cluster(ConfigKind::kSparkH, 8);
  Context ctx(opts);

  auto hist = std::make_shared<const KeyHistogram>(
      bench::wiki_hourly(12, 700 * kMiB));
  auto A = Dataset::source("A", hist, 6)->map({}, "A.map");
  auto B = A->partition_by(std::make_shared<HashPartitioner>(2), "", "B");
  auto C = B->filter({.selectivity = 0.02}, "C");
  C->cache();
  auto D = C->filter({.selectivity = 0.5}, "D");

  const double c_delay = ctx.count(C).delay;
  const double d_delay = ctx.count(D).delay;

  // D-: identical pipeline, never cached; reuses B's shuffle outputs.
  auto C2 = B->filter({.selectivity = 0.02}, "C-");
  auto D2 = C2->filter({.selectivity = 0.5}, "D-");
  const double dminus_delay = ctx.count(D2).delay;

  Table t({"job", "delay (s)", "", "paper"});
  const double maxd = std::max(c_delay, dminus_delay);
  t.add_row({"C (first count)", Table::num(c_delay, 2),
             bench::bar(c_delay, maxd), "~9-17 s"});
  t.add_row({"D (cached)", Table::num(d_delay, 3),
             bench::bar(d_delay, maxd), "~0.2 s"});
  t.add_row({"D- (locality violated)", Table::num(dminus_delay, 2),
             bench::bar(dminus_delay, maxd), "~9 s"});
  t.print();

  const bool ok = d_delay < 0.1 * dminus_delay && dminus_delay < c_delay;
  std::printf(
      "\nShape check: D << D- (cache saves the stage recompute), "
      "D- < C (shuffle write skipped): %s\n",
      ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
