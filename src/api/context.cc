#include "api/context.h"

#include <stdexcept>

#include "obs/chrome_sink.h"
#include "obs/ring_sink.h"
#include "obs/stage_agg_sink.h"

namespace stark {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("ContextOptions: " + what);
}

// Validation happens before any subsystem is constructed, so a bad knob
// fails fast with a message naming the field instead of silently warping
// the simulation (negative waits disable delay scheduling, a zero-server
// cluster hangs the first job, inverted heartbeat times never detect).
ContextOptions validated(ContextOptions o) {
  o.validate();
  // Mirror per-tenant cache quotas into the block stores' options. Tenant
  // ids are dense: 0 is the default tenant (never quota'd here), configured
  // tenant i gets id i+1 (the TenantRegistry mints them in the same order).
  bool any_quota = false;
  for (const TenantOptions& t : o.tenants.tenants) {
    any_quota = any_quota || t.cache_quota > 0.0;
  }
  if (any_quota) {
    auto& fractions = o.cluster.cache.tenant_quota_fractions;
    fractions.assign(o.tenants.tenants.size() + 1, 0.0);
    for (std::size_t i = 0; i < o.tenants.tenants.size(); ++i) {
      fractions[i + 1] = o.tenants.tenants[i].cache_quota;
    }
  }
  return o;
}

}  // namespace

void ContextOptions::validate() const {
  if (cluster.num_servers <= 0) {
    reject("cluster.num_servers must be positive (got " +
           std::to_string(cluster.num_servers) + ")");
  }
  if (cluster.server.cores <= 0) {
    reject("cluster.server.cores must be positive (got " +
           std::to_string(cluster.server.cores) + ")");
  }
  if (cluster.server.ram <= 0.0) reject("cluster.server.ram must be positive");
  if (cluster.server.storage_fraction < 0.0 ||
      cluster.server.storage_fraction > 1.0) {
    reject("cluster.server.storage_fraction must be in [0, 1]");
  }
  if (cluster.servers_per_rack < 0) {
    reject("cluster.servers_per_rack must be >= 0 (0 = single rack)");
  }
  try {
    cluster.cache.validate();
  } catch (const std::invalid_argument& e) {
    reject(std::string("cluster.cache: ") + e.what());
  }
  try {
    cluster.remote_memory.validate();
  } catch (const std::invalid_argument& e) {
    reject(std::string("cluster.remote_memory: ") + e.what());
  }
  if (cluster.remote_memory.enabled) {
    if (cost.remote_read_bw <= 0.0) {
      reject("cluster.remote_memory.enabled requires cost.remote_read_bw > 0 "
             "(got " + std::to_string(cost.remote_read_bw) + ")");
    }
    if (cost.remote_read_latency < 0.0) {
      reject("cost.remote_read_latency must be >= 0 (got " +
             std::to_string(cost.remote_read_latency) + ")");
    }
  }
  if (locality_wait < 0.0) {
    reject("locality_wait must be >= 0 (got " + std::to_string(locality_wait) +
           ")");
  }
  if (faults.heartbeat_interval <= 0.0) {
    reject("faults.heartbeat_interval must be positive");
  }
  if (faults.heartbeat_timeout < faults.heartbeat_interval) {
    reject("faults.heartbeat_timeout must be >= heartbeat_interval (" +
           std::to_string(faults.heartbeat_timeout) + " < " +
           std::to_string(faults.heartbeat_interval) + ")");
  }
  if (faults.max_task_failures < 1) {
    reject("faults.max_task_failures must be >= 1");
  }
  if (faults.max_stage_attempts < 1) {
    reject("faults.max_stage_attempts must be >= 1");
  }
  if (faults.retry_backoff < 0.0) reject("faults.retry_backoff must be >= 0");
  if (faults.retry_backoff_max < faults.retry_backoff) {
    reject("faults.retry_backoff_max must be >= retry_backoff");
  }
  if (faults.fetch_fail_seconds < 0.0) {
    reject("faults.fetch_fail_seconds must be >= 0");
  }
  if (faults.exclude_on_failure) {
    if (faults.max_task_attempts_per_executor < 1) {
      reject("faults.max_task_attempts_per_executor must be >= 1");
    }
    if (faults.max_failures_per_executor_stage < 1) {
      reject("faults.max_failures_per_executor_stage must be >= 1");
    }
    if (faults.max_failures_per_executor < 1) {
      reject("faults.max_failures_per_executor must be >= 1");
    }
    if (faults.exclude_timeout < 0.0) {
      reject("faults.exclude_timeout must be >= 0");
    }
  }
  if (faults.verify_reads && cost.checksum_bw <= 0.0) {
    reject("faults.verify_reads requires cost.checksum_bw > 0 (got " +
           std::to_string(cost.checksum_bw) + ")");
  }
  if (faults.slowness.enabled) {
    const SlownessOptions& s = faults.slowness;
    if (s.ewma_alpha <= 0.0 || s.ewma_alpha > 1.0) {
      reject("faults.slowness.ewma_alpha must be in (0, 1] (got " +
             std::to_string(s.ewma_alpha) + ")");
    }
    if (s.window < 2) {
      reject("faults.slowness.window must be >= 2 (got " +
             std::to_string(s.window) + ")");
    }
    if (s.band_window < 2) {
      reject("faults.slowness.band_window must be >= 2 (got " +
             std::to_string(s.band_window) + ")");
    }
    if (s.min_samples < 1) {
      reject("faults.slowness.min_samples must be >= 1 (got " +
             std::to_string(s.min_samples) + ")");
    }
    // Band thresholds must be ordered or the hysteresis loop oscillates:
    // recover < suspect <= degraded, all at or above parity (ratio 1).
    if (s.recover_ratio < 1.0 || s.suspect_ratio <= s.recover_ratio ||
        s.degraded_ratio < s.suspect_ratio) {
      reject("faults.slowness band thresholds must satisfy "
             "1 <= recover_ratio < suspect_ratio <= degraded_ratio (got "
             "recover=" + std::to_string(s.recover_ratio) +
             ", suspect=" + std::to_string(s.suspect_ratio) +
             ", degraded=" + std::to_string(s.degraded_ratio) + ")");
    }
    if (s.timeout_quantile <= 0.0 || s.timeout_quantile >= 1.0) {
      reject("faults.slowness.timeout_quantile must be in (0, 1) (got " +
             std::to_string(s.timeout_quantile) + ")");
    }
    if (s.timeout_multiplier <= 0.0) {
      reject("faults.slowness.timeout_multiplier must be positive");
    }
    if (s.timeout_min <= 0.0 || s.timeout_max < s.timeout_min) {
      reject("faults.slowness timeout bounds must satisfy "
             "0 < timeout_min <= timeout_max (got min=" +
             std::to_string(s.timeout_min) +
             ", max=" + std::to_string(s.timeout_max) + ")");
    }
    if (s.hedge_budget_fraction < 0.0 || s.hedge_budget_fraction > 1.0) {
      reject("faults.slowness.hedge_budget_fraction must be in [0, 1] (got " +
             std::to_string(s.hedge_budget_fraction) + ")");
    }
    if (s.probe_interval <= 0.0) {
      reject("faults.slowness.probe_interval must be positive");
    }
  }
  if (overload.deadline_seconds < 0.0) {
    reject("overload.deadline_seconds must be >= 0 (got " +
           std::to_string(overload.deadline_seconds) + ")");
  }
  if (overload.admission_enabled) {
    if (overload.max_in_flight_jobs <= 0) {
      reject("overload.max_in_flight_jobs must be positive (got " +
             std::to_string(overload.max_in_flight_jobs) + ")");
    }
    if (overload.policy != AdmissionPolicy::kBlock &&
        overload.max_pending_jobs <= 0) {
      reject("overload.max_pending_jobs must be positive (got " +
             std::to_string(overload.max_pending_jobs) + ")");
    }
    if (overload.yellow_intake_factor <= 0.0 ||
        overload.yellow_intake_factor > 1.0) {
      reject("overload.yellow_intake_factor must be in (0, 1] (got " +
             std::to_string(overload.yellow_intake_factor) + ")");
    }
    if (overload.red_intake_factor <= 0.0 ||
        overload.red_intake_factor > 1.0) {
      reject("overload.red_intake_factor must be in (0, 1] (got " +
             std::to_string(overload.red_intake_factor) + ")");
    }
  }
  if (overload.pressure.enabled) {
    const MemoryPressureOptions& p = overload.pressure;
    if (!(p.yellow_utilization > 0.0 &&
          p.yellow_utilization < p.red_utilization &&
          p.red_utilization <= 1.0)) {
      reject("overload.pressure thresholds must be ordered "
             "0 < yellow < red <= 1 (got yellow=" +
             std::to_string(p.yellow_utilization) +
             ", red=" + std::to_string(p.red_utilization) + ")");
    }
    if (p.hysteresis < 0.0 || p.hysteresis >= p.yellow_utilization) {
      reject("overload.pressure.hysteresis must be in [0, yellow) (got " +
             std::to_string(p.hysteresis) + ")");
    }
    if (p.eviction_window <= 0.0) {
      reject("overload.pressure.eviction_window must be positive (got " +
             std::to_string(p.eviction_window) + ")");
    }
    if (p.red_evictions_per_second <= 0.0) {
      reject("overload.pressure.red_evictions_per_second must be positive "
             "(got " +
             std::to_string(p.red_evictions_per_second) + ")");
    }
  }
  try {
    tenants.validate();
  } catch (const std::invalid_argument& e) {
    reject(std::string("tenants: ") + e.what());
  }
  try {
    auto_cache.validate();
  } catch (const std::invalid_argument& e) {
    reject(std::string("auto_cache: ") + e.what());
  }
  if (trace.effective_enabled() && trace.ring_capacity == 0 &&
      !trace.aggregate && trace.chrome_path.empty()) {
    reject("trace enabled but no sink configured (ring_capacity = 0, "
           "aggregate = false, chrome_path empty)");
  }
}

Context::Context(ContextOptions options)
    : options_(validated(std::move(options))),
      run_config_(::stark::run_config(options_.config)),
      cluster_(options_.cluster),
      locality_(cluster_),
      groups_(locality_) {
  // Tracing front end: sinks per TraceOptions, enabled only on request —
  // the disabled path costs the engine one pointer test per choke point.
  tracer_ = std::make_unique<obs::Tracer>();
  if (options_.trace.effective_enabled()) {
    if (options_.trace.ring_capacity > 0) {
      tracer_->add_sink(
          std::make_shared<obs::RingBufferSink>(options_.trace.ring_capacity));
    }
    if (options_.trace.aggregate) {
      tracer_->add_sink(std::make_shared<obs::StageAggregationSink>());
    }
    if (!options_.trace.chrome_path.empty()) {
      tracer_->add_sink(
          std::make_shared<obs::ChromeTraceSink>(options_.trace.chrome_path));
    }
    tracer_->set_enabled(true);
  }

  DagOptions dag_opts;
  dag_opts.use_locality_homes = run_config_.colocate;
  dag_opts.mcf = run_config_.mcf;
  dag_opts.locality_wait = options_.locality_wait;
  dag_opts.speculation = options_.speculation;
  dag_opts.replicate_on_recompute = run_config_.replicate_on_recompute;
  dag_opts.detail_task_metrics = options_.detail_task_metrics;
  dag_opts.faults = options_.faults;
  dag_opts.overload = options_.overload;
  dag_opts.tenants = options_.tenants;
  dag_opts.auto_cache = options_.auto_cache;
  dag_ = std::make_unique<DagScheduler>(sim_, cluster_, options_.cost,
                                        locality_, groups_, dag_opts);
  dag_->set_tracer(tracer_.get());
  detector_ = std::make_unique<FailureDetector>(
      sim_, cluster_,
      FailureDetector::Config{options_.faults.heartbeat_interval,
                              options_.faults.heartbeat_timeout});
  detector_->set_tracer(tracer_.get());
  detector_->set_on_executor_lost(
      [this](ServerId s, double latency) { dag_->on_executor_lost(s, latency); });
  // Task offers go only to executors the driver believes are alive, and a
  // launch RPC aimed at a crashed executor fails on the spot and
  // short-circuits the heartbeat timeout.
  dag_->tasks().set_failure_detector(detector_.get());
  // Eviction decisions as first-class trace instants: which policy fired,
  // how many bytes left RAM, and whether the victim spilled to disk. The
  // generic block observer below still emits kBlockEvict for locality/MCF
  // bookkeeping; this channel carries the policy-attribution detail.
  cluster_.add_eviction_observer(
      [this](ServerId s, const BlockManager::CachedBlock& victim) {
        if (!obs::Tracer::active(tracer_.get())) return;
        obs::TraceEvent e;
        e.kind = obs::TraceKind::kEvictionDecision;
        e.t0 = e.t1 = sim_.now();
        e.server = s;
        e.dataset = victim.id.dataset;
        e.partition = victim.id.partition;
        e.bytes = victim.bytes;
        e.code = static_cast<std::int16_t>(options_.cluster.cache.policy);
        if (victim.spill) e.flags |= obs::kFlagSpilled;
        tracer_->emit(e);
      });
  // Demotions between tiers as trace instants (kBlockDemote; code = the
  // destination MemoryTier). Wired only when the remote-memory tier is
  // enabled so a plain spill-to-disk build emits exactly the event stream
  // it always did (bit_identity.sh relies on this).
  if (options_.cluster.remote_memory.enabled) {
    cluster_.add_demotion_observer(
        [this](const BlockId& id, Bytes bytes, MemoryTier to,
               ServerId origin) {
          if (!obs::Tracer::active(tracer_.get())) return;
          obs::TraceEvent e;
          e.kind = obs::TraceKind::kBlockDemote;
          e.t0 = e.t1 = sim_.now();
          e.server = origin;
          e.dataset = id.dataset;
          e.partition = id.partition;
          e.bytes = bytes;
          e.code = static_cast<std::int16_t>(to);
          tracer_->emit(e);
        });
  }
  // Memory-pressure feedback loop: the monitor samples cache utilization
  // pull-style when the scheduler asks (no standing events, so an idle
  // simulation still drains) and folds recent eviction throughput in via
  // a second eviction observer.
  if (options_.overload.pressure.enabled) {
    pressure_ = std::make_unique<MemoryPressureMonitor>(
        cluster_, options_.overload.pressure);
    cluster_.add_eviction_observer(
        [this](ServerId, const BlockManager::CachedBlock&) {
          pressure_->on_eviction(sim_.now());
        });
    dag_->set_pressure_fn([this] { return pressure_->sample(sim_.now()); });
  }
  // Contention tracking (MCF) follows cache contents, and so do the
  // LocalityManager homes: a collection partition maps to a *set* of
  // executors — whenever a remote task materializes a namespaced block,
  // that executor becomes an additional home (replication, §III-B/C3);
  // when the last block of the unit leaves a server, the home decays.
  cluster_.add_block_observer(
      [this](ServerId s, const BlockId& id, bool inserted) {
        if (obs::Tracer::active(tracer_.get())) {
          obs::TraceEvent e;
          e.kind = inserted ? obs::TraceKind::kBlockInsert
                            : obs::TraceKind::kBlockEvict;
          e.t0 = e.t1 = sim_.now();
          e.server = s;
          e.dataset = id.dataset;
          e.partition = id.partition;
          if (inserted) {
            const auto copy = cluster_.find_copy(MemoryTier::kRam, s, id);
            if (copy) e.bytes = copy->bytes;
          }
          tracer_->emit(e);
        }
        dag_->tasks().on_block_event(s, id, inserted);
        if (!run_config_.colocate) return;
        const std::string ns = groups_.ns_of_dataset(id.dataset);
        if (ns.empty() || !locality_.has(ns)) return;
        const int unit = groups_.unit_of(ns, id.partition);
        if (inserted) {
          locality_.add_home(ns, unit, s);
        } else {
          // Drop the home only once no partition of the unit remains here.
          const auto [lo, hi] = groups_.unit_range(ns, unit);
          bool any_left = false;
          for (int p = lo; p < hi && !any_left; ++p) {
            // Any dataset of the namespace counts; checking this dataset is
            // the cheap and usually sufficient approximation.
            any_left = cluster_.cached_on({id.dataset, p}, s);
          }
          if (!any_left) locality_.remove_home(ns, unit, s);
        }
      });
}

PartitionerPtr Context::collection_partitioner(int num_partitions,
                                               Key domain_size) {
  if (shared_partitioner_ != nullptr) return shared_partitioner_;
  switch (run_config_.partitioner_mode) {
    case PartitionerMode::kSharedHash:
      shared_partitioner_ = std::make_shared<HashPartitioner>(num_partitions);
      break;
    case PartitionerMode::kSharedStaticRange:
      shared_partitioner_ =
          StaticRangePartitioner::uniform(domain_size, num_partitions);
      break;
    case PartitionerMode::kPerRddRange:
      throw std::logic_error(
          "Spark-R has no shared collection partitioner; use "
          "partitioner_for() per dataset");
  }
  return shared_partitioner_;
}

PartitionerPtr Context::partitioner_for(const KeyHistogram& hist,
                                        int num_partitions, Key domain_size) {
  if (run_config_.partitioner_mode == PartitionerMode::kPerRddRange) {
    // Spark-R: every dataset gets its own randomized sampling pass, so no
    // two range partitioners are ever equal (nothing co-partitions).
    return RangePartitioner::sample(hist, num_partitions,
                                    options_.seed + (++sample_counter_));
  }
  return collection_partitioner(num_partitions, domain_size);
}

DatasetPtr Context::ingest(const std::string& name, KeyHistogram hist,
                           const PartitionerPtr& part, const std::string& ns,
                           IngestOptions opts) {
  if (opts.source_splits < 1) {
    throw std::invalid_argument(
        "ingest: IngestOptions.source_splits must be >= 1 (got " +
        std::to_string(opts.source_splits) + ")");
  }
  auto hist_ptr = std::make_shared<const KeyHistogram>(std::move(hist));
  auto raw = Dataset::source(name + ".raw", hist_ptr, opts.source_splits);
  const std::string effective_ns = run_config_.colocate ? ns : std::string{};
  if (!effective_ns.empty()) {
    GroupConfig gc = options_.groups;
    gc.grouped = run_config_.grouped;
    gc.extendable = run_config_.extendable;
    groups_.register_namespace(effective_ns, part, gc);
  }
  auto data = raw->partition_by(part, effective_ns, name);
  data->cache();
  groups_.report_dataset(*data);
  if (opts.materialize) {
    dag_->run_job(data, ActionType::kCount);
  }
  return data;
}

JobResult Context::count(const DatasetPtr& ds) {
  return dag_->run_job(ds, ActionType::kCount);
}

JobResult Context::run_action(const DatasetPtr& ds, ActionType action) {
  return dag_->run_job(ds, action);
}

bool Context::kill_server(ServerId s) {
  if (!cluster_.kill_server(s)) return false;  // already dead: no-op
  detector_->on_server_dead(s);
  return true;
}

bool Context::restart_server(ServerId s) {
  if (!cluster_.restart_server(s)) return false;  // already alive: no-op
  detector_->on_server_restarted(s);
  dag_->tasks().schedule();
  return true;
}

bool Context::partition_server(ServerId s) {
  Server& srv = cluster_.server(s);
  if (!srv.alive() || !srv.reachable()) return false;
  cluster_.set_server_reachable(s, false);
  detector_->on_server_dead(s);
  return true;
}

bool Context::heal_server(ServerId s) {
  Server& srv = cluster_.server(s);
  if (!srv.alive() || srv.reachable()) return false;
  cluster_.set_server_reachable(s, true);
  detector_->on_server_healed(s);
  dag_->tasks().on_server_healed(s);
  dag_->tasks().schedule();
  return true;
}

bool Context::corrupt_block(MemoryTier tier, ServerId s, const BlockId& id) {
  return dag_->corrupt_block(tier, s, id);
}

bool Context::corrupt_shuffle_output(const ShuffleKey& key, int unit) {
  return dag_->corrupt_shuffle_output(key, unit);
}

CheckpointOptimizer Context::make_checkpoint_optimizer(double recovery_bound,
                                                       double relax_factor) {
  return CheckpointOptimizer(
      {recovery_bound, relax_factor},
      [this](const Dataset& ds) { return dag_->is_checkpointed(ds.id()); },
      [this](const Dataset& ds) { return dag_->recompute_delay(ds); },
      [this](const Dataset& ds) { return dag_->checkpoint_cost(ds); });
}

EdgeCheckpointer Context::make_edge_checkpointer(double recovery_bound) {
  return EdgeCheckpointer(
      recovery_bound,
      [this](const Dataset& ds) { return dag_->is_checkpointed(ds.id()); },
      [this](const Dataset& ds) { return dag_->recompute_delay(ds); });
}

}  // namespace stark
