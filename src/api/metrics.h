// MetricsCollector: job-level aggregates for experiments, and a summary
// table over the engine's live counters.
//
// The collector aggregates only what it alone sees: the JobResults fed to
// observe_job (job delay distribution, input volume by source, CPU/GC
// time, locality rate, per-tenant rollups) and the RAM block inserts and
// removals it observes on the cluster. Every other counter lives in one
// place in the engine: DagScheduler::failure_stats(), cache_stats(),
// overload_stats(), tenant_overload_stats(), slowness_stats(),
// auto_cache_stats() and Cluster::remote_stats(). summary(dag) reads them
// when it is called.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "sched/dag_scheduler.h"

namespace stark {

class MetricsCollector {
 public:
  // Wires the collector into the cluster's block events. Job results must
  // be fed explicitly (wrap your JobCallback with `observe_job`, or use
  // Context-level helpers).
  explicit MetricsCollector(Cluster& cluster);

  void observe_job(const JobResult& r);

  // Per-tenant rollup, keyed by JobResult::tenant (the empty string is the
  // default tenant). Tenants appear in first-observed order. `tenant_id`
  // indexes DagScheduler::tenant_overload_stats().
  struct TenantSummary {
    std::string tenant;
    TenantId tenant_id = 0;
    int jobs = 0;
    int aborted = 0;
    Distribution delays;
  };

  const std::vector<TenantSummary>& per_tenant() const noexcept {
    return tenants_;
  }
  // Fairness spread: max/min of per-tenant *mean* job delays across tenants
  // with at least one observed job. 1.0 when fewer than two such tenants
  // (or a zero min). Lower is fairer; the fair-share scheduler's headline.
  double tenant_delay_spread() const;

  // Jain's fairness index over the same per-tenant mean delays:
  // (sum m)^2 / (n * sum m^2), in (0, 1] with 1 = perfectly even. Unlike
  // the max/min spread it degrades gracefully when one tenant's mean sits
  // near zero at the saturation knee, so CI gates on this one.
  double tenant_fairness_index() const;

  // Aggregates.
  int jobs() const noexcept { return jobs_; }
  int aborted_jobs() const noexcept { return aborted_jobs_; }
  int tasks() const noexcept { return tasks_; }
  const Distribution& job_delays() const noexcept { return delays_; }
  double node_local_fraction() const noexcept;
  Bytes bytes_from_cache() const noexcept { return bytes_cache_; }
  Bytes bytes_from_net() const noexcept { return bytes_net_; }
  Bytes bytes_from_disk() const noexcept { return bytes_disk_; }
  Bytes bytes_from_remote() const noexcept { return bytes_remote_; }
  double total_cpu_seconds() const noexcept { return cpu_; }
  double total_gc_seconds() const noexcept { return gc_; }
  double gc_fraction() const noexcept;
  long long cache_insertions() const noexcept { return inserts_; }
  long long cache_evictions() const noexcept { return evictions_; }

  // Zeroes every aggregate this collector keeps. The engine's counters
  // are not the collector's to clear.
  void reset() noexcept;

  // Fraction of task input served from local RAM.
  double cache_hit_ratio() const noexcept;

  // The summary table: this collector's aggregates, then one line per
  // engine counter struct, read from `dag` (and its cluster's remote tier
  // and cache policy) at the time of the call.
  std::string summary(const DagScheduler& dag) const;

  // Mean fraction of core time spent executing tasks across alive servers,
  // over [0, now]. Requires the cluster and the current simulated time.
  static double cluster_utilization(const Cluster& cluster, double now);

 private:
  int jobs_ = 0;
  int aborted_jobs_ = 0;
  int tasks_ = 0;
  int node_local_tasks_ = 0;
  Distribution delays_;
  Bytes bytes_cache_ = 0.0;
  Bytes bytes_net_ = 0.0;
  Bytes bytes_disk_ = 0.0;
  Bytes bytes_remote_ = 0.0;
  double cpu_ = 0.0;
  double gc_ = 0.0;
  long long inserts_ = 0;
  long long evictions_ = 0;
  // Per-tenant rollups in first-observed order + name -> index.
  std::vector<TenantSummary> tenants_;
  std::unordered_map<std::string, std::size_t> tenant_index_;
  // Mean delay of each tenant with an observed job, in rollup order.
  std::vector<double> tenant_means() const;
};

}  // namespace stark
