#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>

#include "api/chaos.h"
#include "common/rng.h"
#include "obs/ring_sink.h"
#include "obs/stage_agg_sink.h"
#include "streaming/query_workload.h"
#include "trace/taxi.h"
#include "trace/tweet.h"
#include "trace/wiki.h"

namespace perf {

using namespace stark;

namespace {

constexpr Key kDomain = 64 * 64;
constexpr int kGridBits = 6;

// Independent streams for the engine, the session generators, the
// benchmark's own job generators and chaos, all drawn from --seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return splitmix64(seed ^ splitmix64(salt));
}

ContextOptions paper_cluster(int servers, std::uint64_t seed) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = servers;
  o.cluster.server.cores = 8;
  o.cluster.server.ram = 16.0 * kGiB;
  o.detail_task_metrics = false;
  o.seed = derive(seed, 0);
  return o;
}

KeyHistogram wiki_hourly(int hour, Bytes bytes_per_hour) {
  trace::WikiTraceGen::Config c;
  c.bytes_per_hour = bytes_per_hour;
  trace::WikiTraceGen gen(c);
  return gen.histogram(bytes_per_hour * gen.diurnal_factor(hour), 0.9);
}

// Three cached hourly log inputs of about 200 MiB each; the seed draws each
// volume within 2%, so job delays differ from seed to seed.
std::vector<DatasetPtr> ingest_inputs(Context& ctx, const PartitionerPtr& part,
                                      const std::string& ns, Rng& rng) {
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    const Bytes volume = 200 * kMiB * rng.uniform(0.98, 1.02);
    inputs.push_back(
        ctx.ingest(ns + std::to_string(i), wiki_hourly(i, volume), part, ns));
  }
  return inputs;
}

// --- stream workloads (fig19_steady, full_stack) ----------------------------

struct StreamSpec {
  ContextOptions opts;
  int partitions = 64;
  StreamConfig stream;
  // 0: every batch replays the same hour of the day, `replay_hour` (steady
  // load); otherwise the taxi rate swings over the day and batches follow
  // the clock.
  double diurnal_amplitude = 0.0;
  double replay_hour = 12.0;
  // One session generator per tenant ("" = the default tenant).
  std::vector<std::string> tenants{""};
  double session_rate = 20.0;  // per tenant; the peak when diurnal
  bool diurnal_sessions = false;
  bool cache_cogroup = false;
  int max_window_timesteps = 4;
  bool chaos = false;
  ChaosInjector::Config chaos_config;
  // The workload traces into its own ring and aggregation sinks.
  bool self_traced = false;
  // Stream fill ends and warm-up sessions start here; the measured window
  // is [warm_end, warm_end + window).
  SimTime fill_end = 0.0;
  SimTime warm_end = 0.0;
  SimTime window = 0.0;
};

class StreamWorkload final : public Workload {
 public:
  StreamWorkload(const WorkloadParams& p, StreamSpec spec)
      : Workload(p), spec_(std::move(spec)) {
    build(spec_.opts, spec_.self_traced);
    window_start_ = spec_.warm_end;
    window_end_ = spec_.warm_end + spec_.window;
    shared_ = ctx_->collection_partitioner(spec_.partitions, kDomain);

    trace::TaxiTraceGen::Config tc;
    tc.grid_bits = kGridBits;
    tc.events_per_hour = 1.0e6;
    if (spec_.diurnal_amplitude > 0.0) {
      tc.diurnal_amplitude = spec_.diurnal_amplitude;
    }
    auto taxi = std::make_shared<trace::TaxiTraceGen>(tc);
    auto tweets = std::make_shared<trace::TweetGen>(trace::TweetGen::Config{});
    const bool diurnal = spec_.diurnal_amplitude > 0.0;
    const double replay_hour = spec_.replay_hour;

    GroupConfig gc = ctx_->options().groups;
    gc.grouped = ctx_->run_config().grouped;
    gc.extendable = ctx_->run_config().extendable;
    ctx_->groups().register_namespace(spec_.stream.ns, shared_, gc);
    auto shared = shared_;
    stream_ = std::make_unique<StreamContext>(
        ctx_->dag(), ctx_->groups(), spec_.stream,
        [taxi, tweets, diurnal, replay_hour](int, SimTime t) {
          const double hour =
              diurnal ? std::fmod(t / 3600.0, 24.0) : replay_hour;
          return tweets->merge_with_taxi(taxi->histogram(hour, 2, 1.0 / 12.0));
        },
        [shared](const KeyHistogram&, int) { return shared; });
    if (spec_.chaos) {
      spec_.chaos_config.seed = derive(params_.seed, 3);
      chaos_ = std::make_unique<ChaosInjector>(*ctx_, spec_.chaos_config);
    }
  }

  void load() override {
    const double batch = spec_.stream.batch_interval;
    stream_->start(static_cast<int>(std::ceil(window_end_ / batch)));
    ctx_->sim().run(spec_.fill_end);
  }

  void warm_up() override {
    if (chaos_) chaos_->start(spec_.fill_end, window_end_);
    start_sessions(warm_, spec_.fill_end, window_start_, 100);
    ctx_->sim().run(window_start_);
  }

  void open_window() override {
    start_sessions(measured_, window_start_, window_end_, 200);
  }

  Outcome outcome() const override {
    Outcome o;
    for (const auto& wl : measured_) {
      for (double d : wl->delays().samples()) o.delays.add(d);
      o.issued += wl->issued();
      o.failed += wl->failed();
    }
    return o;
  }

 private:
  void start_sessions(std::vector<std::unique_ptr<QueryWorkload>>& into,
                      SimTime from, SimTime to, std::uint64_t salt) {
    for (std::size_t i = 0; i < spec_.tenants.size(); ++i) {
      QueryWorkload::Config qc;
      const double rate = spec_.session_rate;
      if (spec_.diurnal_sessions) {
        qc.rate = [rate](SimTime t) {
          const double hour = std::fmod(t / 3600.0, 24.0);
          const double lift =
              std::max(0.0, std::sin(hour * std::numbers::pi / 12.0));
          return rate * (0.4 + 0.6 * lift);
        };
      } else {
        qc.rate = [rate](SimTime) { return rate; };
      }
      qc.max_window_timesteps = spec_.max_window_timesteps;
      qc.min_window_timesteps = 2;
      qc.grid_bits = kGridBits;
      qc.region_cells = 16;
      qc.cache_cogroup = spec_.cache_cogroup;
      qc.tenant = spec_.tenants[i];
      qc.seed = derive(params_.seed, salt + i);
      auto shared = shared_;
      into.push_back(std::make_unique<QueryWorkload>(
          *stream_, ctx_->dag(), qc,
          [shared](const std::vector<DatasetPtr>&) { return shared; }));
      into.back()->start(from, to);
    }
  }

  StreamSpec spec_;
  PartitionerPtr shared_;
  std::unique_ptr<StreamContext> stream_;
  std::unique_ptr<ChaosInjector> chaos_;
  std::vector<std::unique_ptr<QueryWorkload>> warm_;
  std::vector<std::unique_ptr<QueryWorkload>> measured_;
};

// Paper Fig 19 operating point: 40 servers, Stark-H, FIFO, a taxi+tweet
// stream cached in RAM (blocks leave only when retention expires) and 20
// interactive sessions/s. Every optional subsystem stays off, so this is
// the paper's own hot path.
std::unique_ptr<Workload> fig19_steady(const WorkloadParams& p) {
  StreamSpec s;
  s.opts = paper_cluster(40, p.seed);
  s.opts.locality_wait = 0.3;
  s.opts.groups.initial_groups = 32;
  s.opts.groups.min_group_bytes = 1 * kMiB;
  s.opts.groups.max_group_bytes = 48 * kMiB;
  s.partitions = 64;
  s.stream.batch_interval = 300.0;
  s.stream.retention = 3600.0;
  s.stream.ns = "stream";
  // The seed picks the replayed ten minutes after noon, so the batch volume
  // (and with it every session's delay) differs from seed to seed.
  s.replay_hour = 12.0 + Rng(derive(p.seed, 5)).uniform(0.0, 1.0 / 6.0);
  s.session_rate = 20.0;
  s.max_window_timesteps = 4;
  s.fill_end = 3300.0;
  s.warm_end = s.fill_end + 600.0 * p.scale;
  s.window = 5400.0 * p.scale;
  return std::make_unique<StreamWorkload>(p, std::move(s));
}

// Fig 20 diurnal load on a cache far smaller than the retention window,
// with every optional subsystem on at once: LRC eviction with pinning, the
// remote-memory tier, the kFull cache advisor, slowness mitigation under
// fail-slow chaos, verified reads under corruption chaos, fair share over
// three weighted tenants running cached sessions, and ring + aggregation
// tracing.
std::unique_ptr<Workload> full_stack(const WorkloadParams& p) {
  StreamSpec s;
  s.opts = paper_cluster(8, p.seed);
  s.opts.locality_wait = 0.3;
  s.opts.groups.initial_groups = 16;
  s.opts.groups.min_group_bytes = 1 * kMiB;
  s.opts.groups.max_group_bytes = 48 * kMiB;
  s.opts.cluster.server.ram = 48 * kMiB;
  s.opts.cluster.cache.policy = EvictionPolicyKind::kLrc;
  s.opts.cluster.cache.pin_running_blocks = true;
  s.opts.cluster.remote_memory.enabled = true;
  s.opts.cluster.remote_memory.capacity = 1536 * kMiB;
  s.opts.cluster.remote_memory.policy = EvictionPolicyKind::kLrc;
  s.opts.auto_cache.mode = AutoCacheMode::kFull;
  // Longer than the batch interval, so live timesteps are not reclaimed
  // between their once-per-batch re-references (docs/CACHING.md).
  s.opts.auto_cache.free_grace_seconds = 450.0;
  s.opts.faults.slowness.enabled = true;
  s.opts.faults.verify_reads = true;
  s.opts.tenants.fair_share = true;
  s.opts.tenants.tenants = {{"gold", 3.0}, {"silver", 2.0}, {"bronze", 1.0}};
  s.partitions = 32;
  s.stream.batch_interval = 300.0;
  s.stream.retention = 5400.0;
  s.stream.ns = "stream";
  s.stream.storage_level = Dataset::StorageLevel::kMemoryAndDisk;
  s.diurnal_amplitude = 0.6;
  s.tenants = {"gold", "silver", "bronze"};
  s.session_rate = 0.25;
  s.diurnal_sessions = true;
  s.cache_cogroup = true;
  s.max_window_timesteps = 8;
  s.chaos = true;
  s.chaos_config.failures_per_hour = 0.0;
  s.chaos_config.disk_ramps_per_hour = 12.0;
  s.chaos_config.mean_ramp_seconds = 50.0;
  s.chaos_config.ramp_max_disk_factor = 10.0;
  s.chaos_config.nic_brownouts_per_hour = 18.0;
  s.chaos_config.mean_brownout_seconds = 40.0;
  s.chaos_config.brownout_net_factor = 12.0;
  s.chaos_config.stalls_per_hour = 10.0;
  s.chaos_config.mean_stall_seconds = 4.0;
  s.chaos_config.stall_factor = 3.0;
  s.chaos_config.corruptions_per_hour = 20.0;
  s.self_traced = true;
  s.fill_end = 1200.0;
  s.warm_end = s.fill_end + 4200.0 * p.scale;
  s.window = 4.0 * 3600.0 * p.scale;
  return std::make_unique<StreamWorkload>(p, std::move(s));
}

// --- tenant_backlog ----------------------------------------------------------

// Closed loop: 48 weighted tenants each keep 12 cogroup-filter-count jobs
// outstanding on 16 four-core servers under fair share. Admission allows 8
// in flight and 8 pending per tenant, so ~384 task sets stay live (above
// the scheduler's 256-set deep-backlog threshold) and nothing is refused.
// Every fourth tenant weighs 2, the rest 1: a closed loop's delay is set by
// the weight, and with this split 60% of the jobs come from weight-1
// tenants, so the median lands inside one weight class instead of between
// two.
class TenantBacklog final : public Workload {
 public:
  static constexpr int kTenants = 48;
  static constexpr int kOutstanding = 12;

  explicit TenantBacklog(const WorkloadParams& p)
      : Workload(p), rng_(derive(p.seed, 4)) {
    ContextOptions o = paper_cluster(16, p.seed);
    o.cluster.server.cores = 4;
    o.tenants.fair_share = true;
    for (int t = 0; t < kTenants; ++t) {
      char name[8];
      std::snprintf(name, sizeof(name), "t%02d", t);
      o.tenants.tenants.push_back({name, t % 4 == 0 ? 2.0 : 1.0});
    }
    o.overload.admission_enabled = true;
    o.overload.max_in_flight_jobs = 8;
    o.overload.max_pending_jobs = 8;
    build(o, false);
  }

  void load() override {
    part_ = ctx_->collection_partitioner(32, kDomain);
    inputs_ = ingest_inputs(*ctx_, part_, "backlog", rng_);
  }

  void warm_up() override {
    const SimTime t = ctx_->sim().now();
    window_start_ = t + 800.0 * params_.scale;
    window_end_ = window_start_ + 11000.0 * params_.scale;
    for (int i = 0; i < kOutstanding; ++i) {
      for (int tenant = 0; tenant < kTenants; ++tenant) next_job(tenant);
    }
    ctx_->sim().run(window_start_);
  }

  void open_window() override {}  // the loops are already running

  Outcome outcome() const override { return outcome_; }

 private:
  void next_job(int tenant) {
    const SimTime now = ctx_->sim().now();
    if (now >= window_end_) return;
    const bool measured = now >= window_start_;
    // Two or three of the inputs, and a seeded region selectivity.
    std::vector<DatasetPtr> parents = inputs_;
    if (rng_.next_below(2) == 0) {
      parents.erase(parents.begin() +
                    static_cast<std::ptrdiff_t>(rng_.next_below(3)));
    }
    auto cg = Dataset::cogroup(std::move(parents), part_, "backlog.cogroup");
    auto region = cg->filter({.selectivity = rng_.uniform(0.02, 0.2)},
                             "backlog.region");
    if (measured) ++outcome_.issued;
    submit(region, {.tenant = ctx_->options().tenants.tenants[
                        static_cast<std::size_t>(tenant)].name},
           [this, tenant, measured](const JobResult& r) {
             if (measured) record(r);
             if (r.completed) {
               next_job(tenant);
             } else {
               // Never resubmit inside a refusal's synchronous callback.
               ctx_->sim().after(1.0, [this, tenant] { next_job(tenant); });
             }
           },
           measured);
  }

  void record(const JobResult& r) {
    if (r.completed) {
      outcome_.delays.add(r.delay);
    } else {
      ++outcome_.failed;
    }
  }

  Rng rng_;
  PartitionerPtr part_;
  std::vector<DatasetPtr> inputs_;
  Outcome outcome_;
};

// --- chaos_recovery ----------------------------------------------------------

// Open loop: one 48-task cogroup-filter-count job every 0.75 s on 48
// servers (FIFO) under crash-stop kills with repair, flaky tasks, slow
// nodes and checksum corruption with verified reads. A kill drops cached
// input partitions; rebuilding them from lineage re-reads the ingestion
// shuffle, whose lost map outputs force stage resubmission.
//
// The fault rates sit on the stable side of a cliff. Flaky failures charge
// app-level exclusion (2 failures exclude an executor for 60 s), and the
// exclusions feed back: fewer executors run more tasks each and collect
// failures faster. On 12 servers at one job per 1.5 s the cluster is
// bistable at 2% flaky tasks (recurring crises, p99 doubling between
// seeds) and collapses at 2.5% (300 s of host time, a third of the jobs
// failed). Here 0.75% flaky leaves ~70% of jobs without a flaky task, so
// the median is a clean job and the p99 is set by kills and slow nodes.
class ChaosRecovery final : public Workload {
 public:
  static constexpr double kSpacing = 0.75;

  explicit ChaosRecovery(const WorkloadParams& p)
      : Workload(p), rng_(derive(p.seed, 4)) {
    ContextOptions o = paper_cluster(48, p.seed);
    o.faults.verify_reads = true;
    // With 4 attempts about one job in two million aborts, when kills keep
    // hitting the hosts of a recomputed ingestion shuffle; at 8 none do, so
    // every job's outcome is a delay.
    o.faults.max_stage_attempts = 8;
    build(o, false);
  }

  void load() override {
    part_ = ctx_->collection_partitioner(48, kDomain);
    inputs_ = ingest_inputs(*ctx_, part_, "soak", rng_);
  }

  void warm_up() override {
    const SimTime t = ctx_->sim().now();
    window_start_ = t + 5400.0 * params_.scale;
    window_end_ = window_start_ + 67500.0 * params_.scale;
    ChaosInjector::Config cc;
    cc.failures_per_hour = 240.0;
    cc.mean_repair_seconds = 20.0;
    cc.min_alive = 24;
    cc.flaky_task_probability = 0.0075;
    cc.slow_nodes_per_hour = 480.0;
    cc.mean_slow_seconds = 8.0;
    cc.corruptions_per_hour = 240.0;
    cc.seed = derive(params_.seed, 3);
    chaos_ = std::make_unique<ChaosInjector>(*ctx_, cc);
    chaos_->start(t, window_end_);
    next_job(t);
    ctx_->sim().run(window_start_);
  }

  void open_window() override {}  // the generator is already running

  Outcome outcome() const override { return outcome_; }

 private:
  void next_job(SimTime at) {
    if (at >= window_end_) return;
    ctx_->sim().at(at, [this, at] {
      const bool measured = at >= window_start_;
      auto cg = Dataset::cogroup(inputs_, part_, "soak.cogroup");
      auto filtered = cg->filter({.selectivity = rng_.uniform(0.05, 0.15)},
                                 "soak.filter");
      if (measured) ++outcome_.issued;
      submit(filtered, {},
             [this, measured](const JobResult& r) {
               if (!measured) return;
               if (r.completed) {
                 outcome_.delays.add(r.delay);
               } else {
                 ++outcome_.failed;
               }
             },
             measured);
      next_job(at + kSpacing);
    });
  }

  Rng rng_;
  PartitionerPtr part_;
  std::vector<DatasetPtr> inputs_;
  std::unique_ptr<ChaosInjector> chaos_;
  Outcome outcome_;
};

}  // namespace

void Workload::build(ContextOptions opts, bool self_traced) {
  ctx_ = std::make_unique<Context>(std::move(opts));
  obs::Tracer& tracer = ctx_->tracer();
  if (self_traced) {
    auto ring = std::make_shared<obs::RingBufferSink>(
        obs::TraceOptions{}.ring_capacity);
    auto aggregate = std::make_shared<obs::StageAggregationSink>();
    if (params_.probe) {
      params_.probe->forward_to(ring, aggregate);
      tracer.add_sink(params_.probe);
    } else {
      tracer.add_sink(ring);
      tracer.add_sink(aggregate);
    }
    tracer.set_enabled(true);
  } else if (params_.probe) {
    tracer.add_sink(params_.probe);  // enabled when the window opens
  }
}

void Workload::submit(const DatasetPtr& ds, SubmitOptions opts, JobCallback cb,
                      bool measured) {
  if (params_.probe == nullptr || !measured) {
    ctx_->dag().submit(ds, ActionType::kCount, std::move(opts), std::move(cb));
    return;
  }
  const auto t0 = Clock::now();
  ctx_->dag().submit(ds, ActionType::kCount, std::move(opts), std::move(cb));
  submit_s_ += seconds_between(t0, Clock::now());
  ++submit_calls_;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "fig19_steady", "full_stack", "tenant_backlog", "chaos_recovery"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& p) {
  if (name == "fig19_steady") return fig19_steady(p);
  if (name == "full_stack") return full_stack(p);
  if (name == "tenant_backlog") return std::make_unique<TenantBacklog>(p);
  if (name == "chaos_recovery") return std::make_unique<ChaosRecovery>(p);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perf
