// Heap allocations per task on the steady-state path. This executable
// replaces the global operator new with a counting one, so it is built on
// its own: the counter must not see other suites' allocations.
//
// One job shape runs at two partition counts: count a filter over a cached
// cogroup of two co-partitioned datasets. Fixed per-job costs cancel in the
// difference, which leaves the allocations each extra task adds: task
// launch, planning, completion and the driver's bookkeeping. The one
// allocation a task still needs is its TaskSpec::preferred list.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "api/stark.h"
#include "trace/wiki.h"

namespace {

bool g_counting = false;
long long g_allocations = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stark {
namespace {

struct Measured {
  long long allocations = 0;
  int tasks = 0;
};

// Allocations made by one count of the job after a warm-up count has
// materialized the cogroup's cache and grown every pool.
Measured measure(int partitions) {
  ContextOptions opts;
  opts.config = ConfigKind::kStarkH;
  opts.cluster.num_servers = 8;
  Context ctx(opts);
  trace::WikiTraceGen wiki({});
  auto part = ctx.collection_partitioner(partitions, /*domain_size=*/4096);
  auto hour0 = ctx.ingest("hour0", wiki.hourly_histogram(0), part, "logs");
  auto hour1 = ctx.ingest("hour1", wiki.hourly_histogram(1), part, "logs");
  auto grouped = Dataset::cogroup({hour0, hour1}, part);
  grouped->cache();
  auto matches = grouped->filter({.selectivity = 0.01}, "matches");
  const JobResult warm = ctx.count(matches);
  EXPECT_TRUE(warm.completed);

  g_allocations = 0;
  g_counting = true;
  const JobResult r = ctx.count(matches);
  g_counting = false;
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.bytes_from_net, 0.0);  // every partition read from cache
  return {g_allocations, r.num_tasks};
}

TEST(AllocBudget, AtMostTwoAllocationsPerExtraTask) {
  const Measured small = measure(64);
  const Measured large = measure(256);
  ASSERT_EQ(small.tasks, 64);
  ASSERT_EQ(large.tasks, 256);
  const double per_task =
      static_cast<double>(large.allocations - small.allocations) /
      (large.tasks - small.tasks);
  std::printf("allocations: %lld at %d tasks, %lld at %d tasks; %.2f per "
              "extra task\n",
              small.allocations, small.tasks, large.allocations, large.tasks,
              per_task);
  EXPECT_LE(per_task, 2.0);
}

}  // namespace
}  // namespace stark
