// Remote-memory tier ablation (PR 9): recompute-only vs local-disk spill vs
// the disaggregated remote pool, under the Fig 20 diurnal operating point.
//
// The block stores are sized well below the retention window (same pressure
// knob as ablation_cache_policy), so every timestep insert forces evictions
// and interactive sessions keep re-reading partitions the hierarchy either
// kept somewhere or has to rebuild from lineage. Three arms:
//
//   recompute   StorageLevel::kMemory — an evicted block is simply gone;
//               the next read pays a full lineage recompute.
//   disk        StorageLevel::kMemoryAndDisk — evictions spill to the
//               origin server's local disk and reads fault from there.
//   remote      kMemoryAndDisk + the cluster-wide remote-memory pool:
//               evictions demote to the pool first (one-sided reads, no
//               disk seek), the pool's own evictions cascade to disk.
//
// The headline compares the remote arm against recompute-only:
// `bytes_recomputed` (logical bytes rebuilt from lineage) and the query
// p99 must BOTH drop — the tier only earns its place if holding evicted
// bytes one RTT away beats rebuilding them. Results are emitted as JSON;
// `--smoke` runs a down-scaled sweep for CI and `--pinned` a fixed small
// scenario for scripts/bit_identity.sh (byte-identical across runs).
#include <cmath>
#include <cstdio>
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

enum class Arm { kRecompute, kDisk, kRemote };

const char* arm_name(Arm a) {
  switch (a) {
    case Arm::kRecompute: return "recompute";
    case Arm::kDisk: return "disk";
    case Arm::kRemote: return "remote";
  }
  return "?";
}

struct Scale {
  double hours = 3.0;         // simulated span of stream ingestion
  double retention = 5400.0;  // cached window (seconds)
  double query_rate = 2.0;    // peak sessions/s (diurnally modulated)
  int max_window_timesteps = 8;
};

struct CellResult {
  Arm arm = Arm::kRecompute;
  CacheStats cache;
  RemoteMemoryStats remote;
  long long evictions = 0;
  int queries_issued = 0;
  int queries_completed = 0;
  double mean_delay_ms = 0.0;
  double p99_delay_ms = 0.0;
};

CellResult run_cell(Arm arm, const Scale& w, Bytes ram, Bytes pool_bytes) {
  ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkH, kServers);
  opts.detail_task_metrics = false;
  opts.locality_wait = 0.3;
  opts.groups.initial_groups = 16;
  opts.groups.min_group_bytes = 1 * kMiB;
  opts.groups.max_group_bytes = 48 * kMiB;
  opts.cluster.server.ram = ram;  // the pressure knob: cache << window
  opts.cluster.cache.pin_running_blocks = true;
  if (arm == Arm::kRemote) {
    opts.cluster.remote_memory.enabled = true;
    opts.cluster.remote_memory.capacity = pool_bytes;
  }
  Context ctx(opts);
  MetricsCollector metrics(ctx.cluster());
  PartitionerPtr shared = ctx.collection_partitioner(kPartitions, kDomain);

  trace::TaxiTraceGen::Config tc;
  tc.grid_bits = kGridBits;
  tc.events_per_hour = 1.0e6;
  tc.diurnal_amplitude = 0.6;  // the Fig 20 replay shape
  auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
  auto tweets = std::make_shared<trace::TweetGen>(trace::TweetGen::Config{});

  StreamConfig sc;
  sc.batch_interval = 300.0;
  sc.retention = w.retention;
  sc.ns = "stream";
  // The arm selector: kMemory makes every eviction a future recompute;
  // kMemoryAndDisk routes evictions into the spill path, where the remote
  // pool (when enabled) intercepts them before local disk.
  sc.storage_level = arm == Arm::kRecompute
                         ? Dataset::StorageLevel::kMemory
                         : Dataset::StorageLevel::kMemoryAndDisk;
  GroupConfig gc = opts.groups;
  gc.grouped = ctx.run_config().grouped;
  gc.extendable = ctx.run_config().extendable;
  ctx.groups().register_namespace("stream", shared, gc);
  StreamContext stream(
      ctx.dag(), ctx.groups(), sc,
      [taxi, tweets](int /*step*/, SimTime t) {
        const double hour = std::fmod(t / 3600.0, 24.0);
        return tweets->merge_with_taxi(taxi->histogram(hour, 2, 1.0 / 12.0));
      },
      [shared](const KeyHistogram&, int) { return shared; });
  stream.start(static_cast<int>(w.hours * 12.0));

  QueryWorkload::Config qc;
  const double rate = w.query_rate;
  qc.rate = [rate](SimTime t) {
    const double day = std::fmod(t / 3600.0, 24.0);
    const double lift = std::max(0.0, std::sin(day * 3.14159265 / 12.0));
    return rate * (0.4 + 0.6 * lift);
  };
  qc.max_window_timesteps = w.max_window_timesteps;
  qc.min_window_timesteps = 2;
  qc.grid_bits = kGridBits;
  qc.region_cells = 16;
  qc.cache_cogroup = true;  // interactive sessions keep the cache churning
  // Session cogroups stay at the default MEMORY_ONLY_SER in every arm:
  // they are dead after the follow-up, so spilling the corpses would only
  // pollute the lower tiers. The tiers compete on the *window* — evicted
  // timesteps that future sessions re-read (qc.cogroup_storage_level is
  // the knob if a bench ever wants the corpses spilled too).
  qc.seed = 17;
  QueryWorkload wl(stream, ctx.dag(), qc,
                   [shared](const std::vector<DatasetPtr>&) { return shared; });
  wl.start(1800.0, w.hours * 3600.0);
  ctx.sim().run(w.hours * 3600.0 + 900.0);

  CellResult r;
  r.arm = arm;
  r.cache = ctx.dag().cache_stats();
  r.remote = ctx.cluster().remote_stats();
  r.evictions = metrics.cache_evictions();
  r.queries_issued = wl.issued();
  r.queries_completed = wl.completed();
  if (wl.completed() > 0) {
    r.mean_delay_ms = wl.delays().mean() * 1e3;
    r.p99_delay_ms = wl.delays().percentile(0.99) * 1e3;
  }
  return r;
}

void emit_cell(bench::JsonEmitter& json, const CellResult& r) {
  json.begin_object();
  json.field("arm", arm_name(r.arm));
  json.field("probe_hits", r.cache.hits);
  json.field("probe_misses", r.cache.misses);
  json.field("remote_hits", r.cache.remote_hits);
  json.field("fault_backs", r.cache.fault_backs);
  json.field("recomputes", r.cache.recomputes);
  json.field("bytes_recomputed", r.cache.bytes_recomputed, "%.0f");
  json.field("bytes_from_cache", r.cache.bytes_from_cache, "%.0f");
  json.field("bytes_from_remote", r.cache.bytes_from_remote, "%.0f");
  json.field("evictions", r.evictions);
  json.field("pool_demotions", r.remote.demotions_in);
  json.field("pool_bytes_demoted", r.remote.bytes_demoted_in, "%.0f");
  json.field("pool_evictions_to_disk", r.remote.evictions_to_disk);
  json.field("queries_issued", r.queries_issued);
  json.field("queries_completed", r.queries_completed);
  json.field("mean_delay_ms", r.mean_delay_ms, "%.2f");
  json.field("p99_delay_ms", r.p99_delay_ms, "%.2f");
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool pinned = false;
  // Per-server RAM sized so the retention window does NOT fit in the
  // aggregate cache: in-window timesteps evict and future sessions re-read
  // them — the capacity misses the lower tiers compete on.
  double ram_mb = 48.0;
  double pool_mb = 1536.0;  // the shared pool: bigger than the window
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--pinned") == 0) {
      pinned = true;
    } else if (std::strcmp(argv[i], "--ram-mb") == 0 && i + 1 < argc) {
      ram_mb = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--pool-mb") == 0 && i + 1 < argc) {
      pool_mb = std::atof(argv[++i]);
    }
  }

  Scale w;  // full run: the Fig 20 shape at its paper scale
  if (pinned) {
    w = {0.75, 1800.0, 2.0, 4};  // fixed tiny scenario for bit_identity.sh
  } else if (smoke) {
    w = {1.5, 3600.0, 2.0, 8};
  }
  const Bytes ram = ram_mb * kMiB;
  const Bytes pool = pool_mb * kMiB;
  constexpr Arm kArms[] = {Arm::kRecompute, Arm::kDisk, Arm::kRemote};

  CellResult recompute, remote;
  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "remote_memory");
  json.field("schema", 1);
  json.field("smoke", smoke);
  json.field("pinned", pinned);
  json.field("workload", "fig20_diurnal");
  json.field("ram_mb", ram_mb, "%.0f");
  json.field("pool_mb", pool_mb, "%.0f");
  json.field("servers", kServers);
  json.begin_array("arms");
  for (Arm arm : kArms) {
    std::fprintf(stderr, "[remote_memory] arm %s...\n", arm_name(arm));
    const CellResult r = run_cell(arm, w, ram, pool);
    emit_cell(json, r);
    if (arm == Arm::kRecompute) recompute = r;
    if (arm == Arm::kRemote) remote = r;
  }
  json.end_array();
  const double bytes_reduction =
      recompute.cache.bytes_recomputed > 0.0
          ? (1.0 - remote.cache.bytes_recomputed /
                       recompute.cache.bytes_recomputed) * 100.0
          : 0.0;
  const double p99_reduction =
      recompute.p99_delay_ms > 0.0
          ? (1.0 - remote.p99_delay_ms / recompute.p99_delay_ms) * 100.0
          : 0.0;
  json.begin_object("headline");
  json.field("recompute_bytes_recomputed", recompute.cache.bytes_recomputed,
             "%.0f");
  json.field("remote_bytes_recomputed", remote.cache.bytes_recomputed,
             "%.0f");
  json.field("bytes_reduction_pct", bytes_reduction, "%.1f");
  json.field("recompute_p99_ms", recompute.p99_delay_ms, "%.2f");
  json.field("remote_p99_ms", remote.p99_delay_ms, "%.2f");
  json.field("p99_reduction_pct", p99_reduction, "%.1f");
  json.field("remote_hits", remote.cache.remote_hits);
  json.field("remote_beats_recompute",
             remote.cache.bytes_recomputed < recompute.cache.bytes_recomputed &&
                 remote.p99_delay_ms < recompute.p99_delay_ms);
  json.end_object();
  json.end_object();
  return 0;
}
