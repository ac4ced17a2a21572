// Per-tier planner charges: a cached partition lives in exactly one tier
// of the RAM -> remote pool -> local disk hierarchy, and the task planner's
// probe must charge that tier's read and nothing else. Pins the asymmetry
// on a detected corruption: lower tiers charge the read that failed its
// checksum, RAM does not.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "sched/dag_scheduler.h"
#include "trace/wiki.h"

namespace stark {
namespace {

constexpr Bytes kStoreBytes = 6 * kMiB;  // 10 MiB RAM x 0.6 storage fraction
constexpr DatasetId kFiller = 9999;

struct Outcome {
  JobResult result;
  FailureStats failures;
  CacheStats cache;
  Bytes logical = 0.0;  // the partition's dataset-derived size
  Bytes stored = 0.0;   // the stored (serialized) copy's size
};

class PlannerTierCharges
    : public ::testing::TestWithParam<std::tuple<MemoryTier, bool>> {
 protected:
  MemoryTier tier() const { return std::get<0>(GetParam()); }
  bool verify() const { return std::get<1>(GetParam()); }

  // Places one serialized copy of a single-partition cached source in
  // tier(), optionally corrupts it, then counts the dataset.
  Outcome run(bool corrupt) const {
    ClusterConfig cc;
    cc.num_servers = 1;  // every probe lands on the server holding the copy
    cc.server.ram = 10 * kMiB;
    // The pool absorbs the demotion only when the copy belongs there;
    // otherwise the spill lands on the origin disk.
    cc.remote_memory.enabled = tier() == MemoryTier::kRemote;
    cc.remote_memory.capacity = 64 * kMiB;
    DagOptions dopts;
    dopts.faults.verify_reads = verify();
    const CostModel cost;
    sim::Simulation sim;
    Cluster cluster(cc);
    LocalityManager locality(cluster);
    GroupManager groups(locality);
    DagScheduler dag(sim, cluster, cost, locality, groups, dopts);

    trace::WikiTraceGen::Config wc;
    wc.num_urls = 64;
    auto hist = std::make_shared<const KeyHistogram>(
        trace::WikiTraceGen(wc).histogram(2 * kMiB, 0.9));
    auto ds = Dataset::source("s", hist, 1);
    ds->cache(Dataset::StorageLevel::kMemoryAndDisk);
    const BlockId bid{ds->id(), 0};

    Outcome out;
    out.logical = ds->partition_bytes()[0];
    out.stored = out.logical * cost.serialization_ratio;
    EXPECT_TRUE(cluster.insert_block(0, bid, out.stored,
                                     /*spill_on_evict=*/true));
    if (tier() != MemoryTier::kRam) {
      // A store-sized insert evicts the copy one tier down.
      EXPECT_TRUE(cluster.insert_block(0, {kFiller, 0}, kStoreBytes));
    }
    for (const MemoryTier t :
         {MemoryTier::kRam, MemoryTier::kRemote, MemoryTier::kDisk}) {
      EXPECT_EQ(cluster.find_copy(t, 0, bid).has_value(), t == tier())
          << "tier " << static_cast<int>(t);
    }
    if (corrupt) {
      EXPECT_TRUE(dag.corrupt_block(tier(), 0, bid));
    }
    out.result = dag.run_job(ds);
    out.failures = dag.failure_stats();
    out.cache = dag.cache_stats();
    return out;
  }

  // Bytes the job charged to each tier's read path.
  static Bytes charged(const JobResult& r, MemoryTier t) {
    switch (t) {
      case MemoryTier::kRam:
        return r.bytes_from_cache;
      case MemoryTier::kRemote:
        return r.bytes_from_remote;
      case MemoryTier::kDisk:
        return r.bytes_from_disk;
    }
    return 0.0;
  }
};

TEST_P(PlannerTierCharges, CleanCopyIsServedFromItsTier) {
  const Outcome o = run(/*corrupt=*/false);
  ASSERT_TRUE(o.result.completed);
  for (const MemoryTier t :
       {MemoryTier::kRam, MemoryTier::kRemote, MemoryTier::kDisk}) {
    EXPECT_DOUBLE_EQ(charged(o.result, t), t == tier() ? o.stored : 0.0)
        << "tier " << static_cast<int>(t);
  }
  EXPECT_DOUBLE_EQ(o.failures.bytes_reverified, verify() ? o.stored : 0.0);
  EXPECT_EQ(o.failures.corruptions_detected, 0);
  EXPECT_EQ(o.failures.corrupt_reads_undetected, 0);
  EXPECT_EQ(o.cache.hits, tier() == MemoryTier::kRam ? 1 : 0);
  EXPECT_EQ(o.cache.misses, tier() == MemoryTier::kRam ? 0 : 1);
  EXPECT_EQ(o.cache.remote_hits, tier() == MemoryTier::kRemote ? 1 : 0);
  EXPECT_EQ(o.cache.recomputes, 0);
}

TEST_P(PlannerTierCharges, CorruptCopyIsDetectedOrCountedPerTier) {
  const Outcome o = run(/*corrupt=*/true);
  ASSERT_TRUE(o.result.completed);
  EXPECT_EQ(o.failures.corruptions_injected, 1);
  EXPECT_DOUBLE_EQ(o.failures.bytes_reverified, verify() ? o.stored : 0.0);
  if (!verify()) {
    // Unverified: the poisoned copy is served exactly like a clean one.
    for (const MemoryTier t :
         {MemoryTier::kRam, MemoryTier::kRemote, MemoryTier::kDisk}) {
      EXPECT_DOUBLE_EQ(charged(o.result, t), t == tier() ? o.stored : 0.0)
          << "tier " << static_cast<int>(t);
    }
    EXPECT_EQ(o.failures.corruptions_detected, 0);
    EXPECT_EQ(o.failures.corrupt_reads_undetected, 1);
    EXPECT_EQ(o.cache.hits, tier() == MemoryTier::kRam ? 1 : 0);
    EXPECT_EQ(o.cache.remote_hits, tier() == MemoryTier::kRemote ? 1 : 0);
    EXPECT_EQ(o.cache.recomputes, 0);
    return;
  }
  // Verified: the copy is dropped and the partition recomputed from its
  // source (a logical-size disk read). Lower tiers also pay for the read
  // that failed the checksum; a corrupt RAM copy costs no read charge.
  const Bytes failed_read = tier() == MemoryTier::kRam ? 0.0 : o.stored;
  EXPECT_DOUBLE_EQ(o.result.bytes_from_cache, 0.0);
  EXPECT_DOUBLE_EQ(o.result.bytes_from_remote,
                   tier() == MemoryTier::kRemote ? failed_read : 0.0);
  EXPECT_DOUBLE_EQ(o.result.bytes_from_disk,
                   (tier() == MemoryTier::kDisk ? failed_read : 0.0) +
                       o.logical);
  EXPECT_EQ(o.failures.corruptions_detected, 1);
  EXPECT_EQ(o.failures.corrupt_reads_undetected, 0);
  EXPECT_EQ(o.cache.hits, 0);
  EXPECT_EQ(o.cache.misses, 1);
  EXPECT_EQ(o.cache.remote_hits, 0);
  EXPECT_EQ(o.cache.recomputes, 1);
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<MemoryTier, bool>>& info) {
  static constexpr const char* kTiers[] = {"Ram", "Remote", "Disk"};
  return std::string(kTiers[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "Verified" : "Unverified");
}

INSTANTIATE_TEST_SUITE_P(
    TierProbe, PlannerTierCharges,
    ::testing::Combine(::testing::Values(MemoryTier::kRam, MemoryTier::kRemote,
                                         MemoryTier::kDisk),
                       ::testing::Bool()),
    case_name);

}  // namespace
}  // namespace stark
