// Integration: silent-data-corruption fault domain (docs/FAULT_MODEL.md).
//
// The contract under test: with verify_reads on, a corrupted stored copy —
// cached block, disk-spilled block, or shuffle map output — is *detected*
// at read time and *repaired* through the ordinary recovery machinery
// (lineage recompute or map-stage resubmission). Never a silent wrong
// result. With verification off, the simulator's omniscient counter
// records every poisoned read that a real cluster would have served as
// correct data.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/chaos.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram wiki_hist(Bytes total) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 512;
  return trace::WikiTraceGen(c).histogram(total, 0.9);
}

ContextOptions options(bool verify) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 6;
  o.faults.verify_reads = verify;
  return o;
}

// Whether `id` has a copy in `tier` on `s` (the remote tier ignores `s`)
// and that copy carries a bad checksum.
bool corrupt_in(Context& ctx, MemoryTier tier, const BlockId& id,
                ServerId s = kInvalidId) {
  const auto copy = ctx.cluster().find_copy(tier, s, id);
  return copy && copy->corrupt;
}

// A copy of `id` in RAM, the remote pool or any server's spill store.
bool available_anywhere(Context& ctx, const BlockId& id) {
  const Cluster& c = ctx.cluster();
  bool available = c.cached_anywhere(id) ||
                   c.find_copy(MemoryTier::kRemote, kInvalidId, id);
  for (ServerId s = 0; s < c.size() && !available; ++s) {
    available = c.find_copy(MemoryTier::kDisk, s, id).has_value();
  }
  return available;
}

// First server hosting a cached replica of {ds, p}, or kInvalidId.
ServerId replica_host(Context& ctx, DatasetId ds, int p) {
  const auto locs = ctx.cluster().cache_locations({ds, p});
  return locs.empty() ? kInvalidId : locs[0];
}

TEST(Corruption, CachedBlockDetectedAndRecomputed) {
  Context ctx(options(/*verify=*/true));
  auto part = ctx.collection_partitioner(12, 512);
  auto ds = ctx.ingest("d", wiki_hist(120 * kMiB), part, "logs");
  const ServerId victim = replica_host(ctx, ds->id(), 0);
  ASSERT_NE(victim, kInvalidId);
  ASSERT_TRUE(ctx.corrupt_block(MemoryTier::kRam, victim, {ds->id(), 0}));
  EXPECT_TRUE(corrupt_in(ctx, MemoryTier::kRam, {ds->id(), 0}, victim));

  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed);
  const FailureStats& st = ctx.dag().failure_stats();
  EXPECT_EQ(st.corruptions_injected, 1);
  EXPECT_GE(st.corruptions_detected, 1);
  EXPECT_GE(st.corruptions_repaired, 1);  // recomputed copy re-cached
  EXPECT_EQ(st.corrupt_reads_undetected, 0);
  EXPECT_GT(st.bytes_reverified, 0.0);
  // The partition is cached again and every replica is clean.
  EXPECT_TRUE(ctx.cluster().cached_anywhere({ds->id(), 0}));
  for (ServerId s : ctx.cluster().cache_locations({ds->id(), 0})) {
    EXPECT_FALSE(corrupt_in(ctx, MemoryTier::kRam, {ds->id(), 0}, s));
  }
}

TEST(Corruption, UnverifiedReadIsSilentButCounted) {
  Context ctx(options(/*verify=*/false));
  auto part = ctx.collection_partitioner(12, 512);
  auto ds = ctx.ingest("d", wiki_hist(120 * kMiB), part, "logs");
  const ServerId victim = replica_host(ctx, ds->id(), 0);
  ASSERT_NE(victim, kInvalidId);
  ASSERT_TRUE(ctx.corrupt_block(MemoryTier::kRam, victim, {ds->id(), 0}));

  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed);  // "completed" — with poisoned data
  const FailureStats& st = ctx.dag().failure_stats();
  EXPECT_EQ(st.corruptions_detected, 0);
  EXPECT_GT(st.corrupt_reads_undetected, 0);
  EXPECT_DOUBLE_EQ(st.bytes_reverified, 0.0);
  // The rot stays in place for the next reader too.
  EXPECT_TRUE(corrupt_in(ctx, MemoryTier::kRam, {ds->id(), 0}, victim));
}

TEST(Corruption, SpilledBlockCorruptionRecomputesNotStaleHit) {
  // MEMORY_AND_DISK: a block evicted to the local disk store, then
  // corrupted on disk, must be detected at read-back and recomputed —
  // never served as a stale "hit".
  ContextOptions o = options(/*verify=*/true);
  o.cluster.num_servers = 2;
  o.cluster.server.ram = 24 * kMiB;  // tiny pool: second dataset evicts
  Context ctx(o);
  auto part = ctx.collection_partitioner(4, 256);
  const auto ingest_and_spill = [&](const std::string& name) {
    auto ds = ctx.ingest(name, wiki_hist(40 * kMiB), part, "logs",
                         {.materialize = false});
    ds->cache(Dataset::StorageLevel::kMemoryAndDisk);
    EXPECT_TRUE(ctx.count(ds).completed);
    return ds;
  };
  auto a = ingest_and_spill("a");
  auto b = ingest_and_spill("b");  // evicts a's blocks into the disk store
  ASSERT_GT(ctx.cluster().total_spilled_bytes(), 0.0);
  ServerId host = kInvalidId;
  BlockId spilled;
  for (ServerId s = 0; s < ctx.cluster().size() && host == kInvalidId; ++s) {
    for (const BlockId& id : ctx.cluster().spilled_blocks(s)) {
      if (id.dataset == a->id()) {
        host = s;
        spilled = id;
        break;
      }
    }
  }
  ASSERT_NE(host, kInvalidId) << "no partition of `a` was spilled";
  ASSERT_TRUE(ctx.corrupt_block(MemoryTier::kDisk, host, spilled));

  const auto r = ctx.count(a);
  EXPECT_TRUE(r.completed);
  const FailureStats& st = ctx.dag().failure_stats();
  EXPECT_GE(st.corruptions_detected, 1);
  EXPECT_EQ(st.corrupt_reads_undetected, 0);
  // The corrupt disk copy is gone; the partition is available again from a
  // clean copy (recomputed into memory, possibly re-spilled since).
  EXPECT_FALSE(corrupt_in(ctx, MemoryTier::kDisk, spilled, host));
  EXPECT_TRUE(available_anywhere(ctx, spilled));
  (void)b;
}

TEST(Corruption, ShuffleOutputCorruptionResubmitsMapStage) {
  Context ctx(options(/*verify=*/true));
  auto part = ctx.collection_partitioner(12, 512);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(
        ctx.ingest("d" + std::to_string(i), wiki_hist(100 * kMiB), part,
                   "logs"));
  }
  auto cg = Dataset::cogroup(inputs, part);
  ASSERT_TRUE(ctx.count(cg).completed);  // materialize shuffle + result

  const auto refs = ctx.dag().live_shuffle_outputs();
  ASSERT_FALSE(refs.empty());
  ASSERT_TRUE(ctx.corrupt_shuffle_output(refs[0].key, refs[0].unit));
  // Drop the cached result so the re-run must fetch the shuffle again.
  for (int p = 0; p < cg->num_partitions(); ++p) {
    ctx.cluster().drop_everywhere({cg->id(), p});
  }

  const auto r = ctx.count(cg);
  EXPECT_TRUE(r.completed);
  const FailureStats& st = ctx.dag().failure_stats();
  EXPECT_GE(st.corruptions_detected, 1);
  EXPECT_GE(st.fetch_failures, 1);       // corrupt fetch == FetchFailed
  EXPECT_GE(st.stage_resubmissions, 1);  // map stage reran the unit
  EXPECT_GE(st.corruptions_repaired, 1);  // fresh map output re-registered
  EXPECT_EQ(st.corrupt_reads_undetected, 0);
}

TEST(Corruption, QuarantineChargesHostingExecutor) {
  // Two detections on one server exhaust the application-level
  // excludeOnFailure budget (max_failures_per_executor = 2): the rotten
  // host is excluded cluster-wide.
  auto run = [](bool quarantine) {
    ContextOptions o = options(/*verify=*/true);
    o.faults.quarantine_on_corruption = quarantine;
    Context ctx(o);
    auto part = ctx.collection_partitioner(12, 512);
    auto ds = ctx.ingest("d", wiki_hist(120 * kMiB), part, "logs");
    // Corrupt every cached replica on the server hosting the most blocks.
    ServerId victim = kInvalidId;
    int hosted = 0;
    for (ServerId s = 0; s < ctx.cluster().size(); ++s) {
      int n = 0;
      for (int p = 0; p < ds->num_partitions(); ++p) {
        if (ctx.cluster().cached_on({ds->id(), p}, s)) ++n;
      }
      if (n > hosted) {
        hosted = n;
        victim = s;
      }
    }
    if (victim == kInvalidId) {
      ADD_FAILURE() << "no server hosts any cached block";
      return 0;
    }
    int corrupted = 0;
    for (int p = 0; p < ds->num_partitions(); ++p) {
      if (ctx.cluster().cached_on({ds->id(), p}, victim) &&
          ctx.corrupt_block(MemoryTier::kRam, victim, {ds->id(), p})) {
        ++corrupted;
      }
    }
    EXPECT_GE(corrupted, 2) << "need >= 2 strikes to trip the app budget";
    EXPECT_TRUE(ctx.count(ds).completed);
    return ctx.dag().failure_stats().executor_exclusions;
  };
  EXPECT_GE(run(/*quarantine=*/true), 1);
  EXPECT_EQ(run(/*quarantine=*/false), 0);
}

TEST(Corruption, SameSeedSoakIsBitIdentical) {
  // Determinism is the repo-wide invariant the whole fault domain must
  // preserve: same seed, same corruption schedule, same recoveries, same
  // counters, same makespan — bit for bit.
  const auto soak = [] {
    Context ctx(options(/*verify=*/true));
    auto part = ctx.collection_partitioner(8, 256);
    std::vector<DatasetPtr> inputs;
    for (int i = 0; i < 2; ++i) {
      inputs.push_back(ctx.ingest("d" + std::to_string(i),
                                  wiki_hist(80 * kMiB), part, "logs"));
    }
    ChaosInjector chaos(ctx, {.failures_per_hour = 0.0,
                              .min_alive = 2,
                              .corruptions_per_hour = 1200.0,
                              .seed = 41});
    const SimTime t0 = ctx.sim().now();
    chaos.start(t0, t0 + 40.0);
    int completed = 0;
    SimTime last = t0;
    for (int q = 0; q < 10; ++q) {
      ctx.sim().at(t0 + 3.0 * q, [&] {
        auto cg = Dataset::cogroup(inputs, part);
        ctx.dag().submit(cg->filter({.selectivity = 0.1}), ActionType::kCount,
                         {}, [&](const JobResult& r) {
                           if (r.completed) ++completed;
                           if (r.finish_time > last) last = r.finish_time;
                         });
      });
    }
    ctx.sim().run();
    const FailureStats& st = ctx.dag().failure_stats();
    return std::make_tuple(completed, last, chaos.corruptions(),
                           st.corruptions_injected, st.corruptions_detected,
                           st.corruptions_repaired,
                           st.corrupt_reads_undetected, st.bytes_reverified,
                           st.fetch_failures, st.stage_resubmissions);
  };
  const auto a = soak();
  const auto b = soak();
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::get<0>(a), 10);               // every job completed
  EXPECT_GT(std::get<3>(a), 0);                // chaos actually injected
  EXPECT_EQ(std::get<6>(a), 0);                // nothing slipped through
}

TEST(Corruption, VerificationChargesCpu) {
  // Checksumming every read is not free: the same clean cached workload
  // costs strictly more CPU with verify_reads on, and the cost is exactly
  // bytes / checksum_bw.
  const auto rerun_cpu = [](bool verify) {
    Context ctx(options(verify));
    auto part = ctx.collection_partitioner(12, 512);
    auto ds = ctx.ingest("d", wiki_hist(120 * kMiB), part, "logs");
    // Delta, not total: the ingestion job's shuffle fetches are verified
    // too, but their cpu is not part of the count job's JobResult.
    const Bytes before = ctx.dag().failure_stats().bytes_reverified;
    const JobResult r = ctx.count(ds);
    const Bytes delta = ctx.dag().failure_stats().bytes_reverified - before;
    return std::make_tuple(r, delta, ctx.options().cost.checksum_bw);
  };
  const auto [r_off, reverified_off, bw_off] = rerun_cpu(false);
  const auto [r_on, reverified_on, bw] = rerun_cpu(true);
  EXPECT_TRUE(r_off.completed);
  EXPECT_TRUE(r_on.completed);
  EXPECT_DOUBLE_EQ(reverified_off, 0.0);
  EXPECT_GT(reverified_on, 0.0);
  ASSERT_GT(bw, 0.0);
  EXPECT_GT(r_on.total_cpu, r_off.total_cpu);
  EXPECT_NEAR(r_on.total_cpu - r_off.total_cpu, reverified_on / bw,
              1e-6 * reverified_on / bw);
  (void)bw_off;
}

TEST(Corruption, VerifyWithoutChecksumBandwidthRejected) {
  ContextOptions o = options(/*verify=*/true);
  o.cost.checksum_bw = 0.0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

// --- remote-memory tier (PR 9): verified reads across the full hierarchy ----

// Shared setup: a remote-tier context under enough cache pressure that the
// second dataset's inserts evict the first dataset's MEMORY_AND_DISK blocks
// into the remote pool (evict -> demote). Returns the first pool block
// belonging to `a`.
struct RemoteChain {
  std::unique_ptr<Context> ctx;
  DatasetPtr a, b;
  BlockId victim{kInvalidId, -1};
};

RemoteChain build_remote_chain(bool verify) {
  ContextOptions o = options(verify);
  o.cluster.num_servers = 2;
  o.cluster.server.ram = 24 * kMiB;  // tiny cache: second dataset evicts
  o.cluster.remote_memory.enabled = true;
  o.cluster.remote_memory.capacity = 256 * kMiB;  // pool holds everything
  RemoteChain rc;
  rc.ctx = std::make_unique<Context>(o);
  Context& ctx = *rc.ctx;
  auto part = ctx.collection_partitioner(4, 256);
  const auto ingest_and_spill = [&](const std::string& name) {
    auto ds = ctx.ingest(name, wiki_hist(40 * kMiB), part, "logs",
                         {.materialize = false});
    ds->cache(Dataset::StorageLevel::kMemoryAndDisk);
    EXPECT_TRUE(ctx.count(ds).completed);
    return ds;
  };
  rc.a = ingest_and_spill("a");
  rc.b = ingest_and_spill("b");  // evicts a's blocks into the pool
  for (const BlockId& id : ctx.cluster().remote_blocks()) {
    if (id.dataset == rc.a->id()) {
      rc.victim = id;
      break;
    }
  }
  return rc;
}

TEST(Corruption, EvictDemoteCorruptReadChainRecovers) {
  // The full hierarchy chain: evict -> demote to the remote pool ->
  // corrupt the pool copy -> verified read detects, drops the copy, and
  // recovers (fault-back of a clean copy or lineage recompute) — never a
  // silent wrong result.
  RemoteChain rc = build_remote_chain(/*verify=*/true);
  Context& ctx = *rc.ctx;
  ASSERT_NE(rc.victim.dataset, kInvalidId) << "no partition of `a` demoted";
  ASSERT_TRUE(ctx.corrupt_block(MemoryTier::kRemote, kInvalidId, rc.victim));
  EXPECT_TRUE(corrupt_in(ctx, MemoryTier::kRemote, rc.victim));

  const auto r = ctx.count(rc.a);
  EXPECT_TRUE(r.completed);
  const FailureStats& st = ctx.dag().failure_stats();
  EXPECT_EQ(st.corruptions_injected, 1);
  EXPECT_GE(st.corruptions_detected, 1);
  EXPECT_EQ(st.corrupt_reads_undetected, 0);
  // The poisoned pool copy is gone; whatever copy exists now is clean.
  EXPECT_FALSE(corrupt_in(ctx, MemoryTier::kRemote, rc.victim));
  EXPECT_TRUE(available_anywhere(ctx, rc.victim));
}

TEST(Corruption, RemoteCopyUnverifiedReadIsSilentButCounted) {
  RemoteChain rc = build_remote_chain(/*verify=*/false);
  Context& ctx = *rc.ctx;
  ASSERT_NE(rc.victim.dataset, kInvalidId) << "no partition of `a` demoted";
  ASSERT_TRUE(ctx.corrupt_block(MemoryTier::kRemote, kInvalidId, rc.victim));

  const auto r = ctx.count(rc.a);
  EXPECT_TRUE(r.completed);  // "completed" — with poisoned data
  const FailureStats& st = ctx.dag().failure_stats();
  EXPECT_EQ(st.corruptions_detected, 0);
  EXPECT_GT(st.corrupt_reads_undetected, 0);
}

TEST(Corruption, RemoteHitsServeWithoutRecompute) {
  // Clean remote copies are served from the pool (remote_hits) and faulted
  // back up; rereading the evicted dataset costs no lineage recompute of
  // its cached partitions.
  RemoteChain rc = build_remote_chain(/*verify=*/true);
  Context& ctx = *rc.ctx;
  ASSERT_NE(rc.victim.dataset, kInvalidId);
  const CacheStats before = ctx.dag().cache_stats();
  const auto r = ctx.count(rc.a);
  EXPECT_TRUE(r.completed);
  const CacheStats& after = ctx.dag().cache_stats();
  EXPECT_GT(after.remote_hits, before.remote_hits);
  EXPECT_GT(after.bytes_from_remote, before.bytes_from_remote);
  EXPECT_GT(r.bytes_from_remote, 0.0);
}

TEST(Corruption, RemoteTierSameSeedIsBitIdentical) {
  // The tier must not break the repo-wide determinism invariant: two runs
  // of the evict -> demote -> corrupt -> read chain agree on makespan and
  // every counter.
  const auto soak = [] {
    RemoteChain rc = build_remote_chain(/*verify=*/true);
    Context& ctx = *rc.ctx;
    if (rc.victim.dataset != kInvalidId) {
      ctx.corrupt_block(MemoryTier::kRemote, kInvalidId, rc.victim);
    }
    const JobResult r = ctx.count(rc.a);
    const FailureStats& st = ctx.dag().failure_stats();
    const CacheStats& cs = ctx.dag().cache_stats();
    return std::make_tuple(r.delay, r.bytes_from_remote, cs.remote_hits,
                           cs.fault_backs, st.corruptions_detected,
                           ctx.cluster().remote_used_bytes());
  };
  EXPECT_EQ(soak(), soak());
}

}  // namespace
}  // namespace stark
