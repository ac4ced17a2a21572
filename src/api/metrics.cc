#include "api/metrics.h"

#include <cstdio>

namespace stark {

MetricsCollector::MetricsCollector(Cluster& cluster) {
  cluster.add_block_observer(
      [this](ServerId, const BlockId&, bool inserted) {
        if (inserted) {
          ++inserts_;
        } else {
          ++evictions_;
        }
      });
}

void MetricsCollector::observe_job(const JobResult& r) {
  ++jobs_;
  if (!r.completed) ++aborted_jobs_;
  tasks_ += r.num_tasks;
  node_local_tasks_ += r.node_local_tasks;
  delays_.add(r.delay);
  bytes_cache_ += r.bytes_from_cache;
  bytes_net_ += r.bytes_from_net;
  bytes_disk_ += r.bytes_from_disk;
  bytes_remote_ += r.bytes_from_remote;
  cpu_ += r.total_cpu;
  gc_ += r.total_gc;
  const auto [it, fresh] = tenant_index_.try_emplace(r.tenant, tenants_.size());
  if (fresh) {
    tenants_.emplace_back();
    tenants_.back().tenant = r.tenant;
    tenants_.back().tenant_id = r.tenant_id;
  }
  TenantSummary& t = tenants_[it->second];
  ++t.jobs;
  if (!r.completed) ++t.aborted;
  t.delays.add(r.delay);
}

std::vector<double> MetricsCollector::tenant_means() const {
  std::vector<double> means;
  for (const TenantSummary& t : tenants_) {
    if (t.delays.count() > 0) means.push_back(t.delays.mean());
  }
  return means;
}

double MetricsCollector::tenant_delay_spread() const {
  return max_min_spread(tenant_means());
}

double MetricsCollector::tenant_fairness_index() const {
  return jain_index(tenant_means());
}

void MetricsCollector::reset() noexcept {
  jobs_ = 0;
  aborted_jobs_ = 0;
  tasks_ = 0;
  node_local_tasks_ = 0;
  delays_ = Distribution{};
  bytes_cache_ = 0.0;
  bytes_net_ = 0.0;
  bytes_disk_ = 0.0;
  bytes_remote_ = 0.0;
  cpu_ = 0.0;
  gc_ = 0.0;
  inserts_ = 0;
  evictions_ = 0;
  tenants_.clear();
  tenant_index_.clear();
}

double MetricsCollector::node_local_fraction() const noexcept {
  return tasks_ > 0 ? static_cast<double>(node_local_tasks_) / tasks_ : 0.0;
}

double MetricsCollector::gc_fraction() const noexcept {
  const double total = cpu_ + gc_;
  return total > 0.0 ? gc_ / total : 0.0;
}

double MetricsCollector::cache_hit_ratio() const noexcept {
  const Bytes total = bytes_cache_ + bytes_net_ + bytes_disk_ + bytes_remote_;
  return total > 0.0 ? bytes_cache_ / total : 0.0;
}

double MetricsCollector::cluster_utilization(const Cluster& cluster,
                                             double now) {
  if (now <= 0.0) return 0.0;
  double busy = 0.0;
  double capacity = 0.0;
  for (ServerId s : cluster.alive_servers()) {
    const Server& srv = cluster.server(s);
    busy += srv.busy_seconds();
    capacity += static_cast<double>(srv.cores()) * now;
  }
  return capacity > 0.0 ? busy / capacity : 0.0;
}

std::string MetricsCollector::summary(const DagScheduler& dag) const {
  const CacheStats& cache = dag.cache_stats();
  const RemoteMemoryStats& remote = dag.cluster().remote_stats();
  const FailureStats& failures = dag.failure_stats();
  const OverloadStats overload = dag.overload_stats();
  const SlownessStats& slowness = dag.slowness_stats();
  const AutoCacheStats& auto_cache = dag.auto_cache_stats();
  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "jobs: %d (%d aborted)  tasks: %d  node-local: %.0f%%\n"
      "delay: mean %s  p50 %s  p99 %s\n"
      "input: %s cache / %s net / %s disk / %s remote  (cache hit %.0f%%)\n"
      "cpu: %.1f s  gc: %.1f s (%.0f%%)  cache inserts/evictions: %lld/%lld\n"
      "policy: %s  probes: %lld hit / %lld miss  recomputed: %lld (%s)  "
      "avoided: %lld\n"
      "remote tier: hits %lld  fault-backs %lld  demotions %lld (%s)  "
      "evicted-to-disk %lld  dropped-dead-origin %lld\n"
      "failures: %d (retries %d, fetch %d)  detections: %d (mean latency "
      "%s)  resubmitted stages: %d  exclusions: %d/%d\n"
      "integrity: injected %d  detected %d  repaired %d  undetected reads "
      "%lld  reverified %s\n"
      "overload: admitted %d  queued %d  rejected %d  shed %d  deadline "
      "%d  pressure transitions %d (red %d)\n"
      "slowness: peers %d suspect / %d degraded (recoveries %d)  hedges "
      "%lld (%lld won, %lld denied)  hedge bytes %s (%s wasted)  timeout "
      "adaptations %lld  probes %d\n"
      "advisor: auto-caches %lld (%s)  auto-frees %lld (%s)  deferred %lld  "
      "protected %lld  reads sampled %lld\n",
      jobs_, aborted_jobs_, tasks_, node_local_fraction() * 100.0,
      format_seconds(delays_.mean()).c_str(),
      format_seconds(delays_.count() ? delays_.percentile(0.5) : 0.0).c_str(),
      format_seconds(delays_.count() ? delays_.percentile(0.99) : 0.0).c_str(),
      format_bytes(bytes_cache_).c_str(), format_bytes(bytes_net_).c_str(),
      format_bytes(bytes_disk_).c_str(), format_bytes(bytes_remote_).c_str(),
      cache_hit_ratio() * 100.0, cpu_,
      gc_, gc_fraction() * 100.0, inserts_, evictions_,
      eviction_policy_name(dag.cluster().config().cache.policy), cache.hits,
      cache.misses, cache.recomputes,
      format_bytes(cache.bytes_recomputed).c_str(), cache.hits,
      cache.remote_hits, cache.fault_backs, remote.demotions_in,
      format_bytes(remote.bytes_demoted_in).c_str(),
      remote.evictions_to_disk, remote.dropped_dead_origin,
      failures.task_failures, failures.task_retries,
      failures.fetch_failures, failures.heartbeat_detections,
      format_seconds(failures.mean_detection_latency()).c_str(),
      failures.stage_resubmissions, failures.executor_exclusions,
      failures.executor_readmissions, failures.corruptions_injected,
      failures.corruptions_detected, failures.corruptions_repaired,
      failures.corrupt_reads_undetected,
      format_bytes(failures.bytes_reverified).c_str(),
      overload.jobs_admitted, overload.jobs_queued, overload.jobs_rejected,
      overload.jobs_shed, overload.deadline_exceeded,
      overload.pressure_transitions, overload.red_entries,
      slowness.suspect_peers, slowness.degraded_peers,
      slowness.recoveries, slowness.hedges_issued, slowness.hedges_won,
      slowness.hedges_budget_denied,
      format_bytes(slowness.hedge_bytes_issued).c_str(),
      format_bytes(slowness.hedge_bytes_wasted).c_str(),
      slowness.timeout_adaptations, slowness.placement_probes,
      auto_cache.auto_caches,
      format_bytes(auto_cache.bytes_promoted).c_str(),
      auto_cache.auto_frees, format_bytes(auto_cache.bytes_freed).c_str(),
      auto_cache.frees_deferred, auto_cache.frees_protected,
      auto_cache.reads_sampled);
  std::string out = buf;
  // Per-tenant appendix: only worth the lines in a genuinely multi-tenant
  // run (the single-tenant table above already tells the whole story).
  if (tenants_.size() > 1) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "tenants: %zu  delay spread %.2fx  jain %.3f\n",
                  tenants_.size(), tenant_delay_spread(),
                  tenant_fairness_index());
    out += line;
    const std::vector<OverloadStats>& tenant_overload =
        dag.tenant_overload_stats();
    for (const TenantSummary& t : tenants_) {
      const auto id = static_cast<std::size_t>(t.tenant_id);
      const OverloadStats ov =
          id < tenant_overload.size() ? tenant_overload[id] : OverloadStats{};
      std::snprintf(
          line, sizeof(line),
          "  tenant %-12s jobs %d (%d aborted)  delay mean %s  p99 %s  "
          "shed %d  rejected %d  deadline %d\n",
          t.tenant.empty() ? "(default)" : t.tenant.c_str(), t.jobs,
          t.aborted, format_seconds(t.delays.mean()).c_str(),
          format_seconds(t.delays.count() ? t.delays.percentile(0.99) : 0.0)
              .c_str(),
          ov.jobs_shed, ov.jobs_rejected, ov.deadline_exceeded);
      out += line;
    }
  }
  return out;
}

}  // namespace stark
