#include "sched/task_scheduler.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "cluster/failure_detector.h"
#include "common/log.h"
#include "common/rng.h"

namespace stark {

TaskScheduler::TaskScheduler(sim::Simulation& sim, Cluster& cluster,
                             const CostModel& cost, Options options,
                             NsOfDatasetFn ns_of_dataset)
    : sim_(&sim),
      cluster_(&cluster),
      cost_(cost),
      options_(options),
      ns_of_dataset_(std::move(ns_of_dataset)),
      by_server_(static_cast<std::size_t>(cluster.size())),
      deferred_(static_cast<std::size_t>(cluster.size())),
      contention_(static_cast<std::size_t>(cluster.size())),
      placement_rng_(options.seed),
      flaky_rng_(splitmix64(options.seed ^ 0x464c414bULL)) {}

void TaskScheduler::TaskRuns::push_back(std::uint64_t id) {
  if (n_ == ids_.size()) {
    throw std::logic_error("TaskScheduler: more than two copies of one task");
  }
  ids_[n_++] = id;
}

void TaskScheduler::TaskRuns::erase(std::uint64_t id) noexcept {
  const auto last = ids_.begin() + n_;
  const auto it = std::find(ids_.begin(), last, id);
  if (it == last) return;
  std::copy(it + 1, last, it);
  --n_;
}

std::uint64_t TaskScheduler::new_run_id() {
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = runs_.size();
    if (slot >> kSlotBits != 0) {
      throw std::length_error("TaskScheduler: run-slot pool exhausted");
    }
    runs_.emplace_back();
  }
  return (launch_seq_++ << kSlotBits) | slot;
}

TaskScheduler::RunningTask TaskScheduler::take_run(RunningTask& slot) {
  RunningTask run = std::move(slot);
  slot.id = kNoRun;
  free_slots_.push_back(static_cast<std::uint32_t>(slot_of(run.id)));
  --live_runs_;
  auto& on_server = by_server_[static_cast<std::size_t>(run.server)];
  const auto it = std::find(on_server.begin(), on_server.end(), run.id);
  if (it != on_server.end()) {
    *it = on_server.back();
    on_server.pop_back();
  }
  return run;
}

void TaskScheduler::submit(TaskSetPtr ts) {
  if (ts == nullptr || ts->tasks.empty()) {
    throw std::invalid_argument("TaskScheduler::submit: empty task set");
  }
  auto set = std::make_shared<ActiveSet>();
  set->ts = std::move(ts);
  set->state.resize(set->ts->tasks.size());
  for (int i = 0; i < static_cast<int>(set->ts->tasks.size()); ++i) {
    set->pending.push_back(i);
    if (!set->ts->tasks[static_cast<std::size_t>(i)].preferred.empty()) {
      set->has_preferences = true;
    }
  }
  set->locality_anchor = sim_->now();
  set->seq = next_set_seq_++;
  ++live_sets_;
  by_job_[set->ts->job].push_back(set);
  mark_ready(set);
  schedule();
}

void TaskScheduler::mark_ready(const std::shared_ptr<ActiveSet>& set) {
  if (set->in_ready || set->aborted || set->detached) return;
  const std::size_t b = ready_bucket(*set);
  if (ready_by_tenant_.size() <= b) ready_by_tenant_.resize(b + 1);
  ready_by_tenant_[b].emplace(set->seq, set);
  ++ready_count_;
  set->in_ready = true;
}

void TaskScheduler::unready(ActiveSet& set) {
  if (!set.in_ready) return;
  ready_by_tenant_[ready_bucket(set)].erase(set.seq);
  --ready_count_;
  set.in_ready = false;
}

void TaskScheduler::set_tenant_weight(TenantId tenant, double weight) {
  if (tenant < 0 || weight <= 0.0) return;
  const auto idx = static_cast<std::size_t>(tenant);
  if (tenant_weight_.size() <= idx) tenant_weight_.resize(idx + 1, 1.0);
  tenant_weight_[idx] = weight;
}

int TaskScheduler::tenant_running_cores(TenantId tenant) const noexcept {
  const auto idx = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
  return idx < tenant_running_cores_.size() ? tenant_running_cores_[idx] : 0;
}

double TaskScheduler::weighted_share(TenantId tenant) const noexcept {
  const auto idx = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
  const double weight =
      idx < tenant_weight_.size() ? tenant_weight_[idx] : 1.0;
  const int cores =
      idx < tenant_running_cores_.size() ? tenant_running_cores_[idx] : 0;
  return static_cast<double>(cores) / weight;
}

void TaskScheduler::detach_set(const std::shared_ptr<ActiveSet>& set) {
  if (set->detached) return;
  set->detached = true;
  unready(*set);
  --live_sets_;
  const auto bit = by_job_.find(set->ts->job);
  if (bit != by_job_.end()) {
    std::erase(bit->second, set);
    if (bit->second.empty()) by_job_.erase(bit);
  }
}

std::uint64_t TaskScheduler::collection_key(const BlockId& id) const {
  const std::string ns = ns_of_dataset_ ? ns_of_dataset_(id.dataset) : "";
  if (ns.empty()) {
    // Not part of a collection: the block is its own "collection
    // partition" and never aliases another dataset's.
    return (static_cast<std::uint64_t>(id.dataset) << 32) |
           static_cast<std::uint32_t>(id.partition);
  }
  return splitmix64(std::hash<std::string>()(ns)) ^
         static_cast<std::uint64_t>(id.partition);
}

void TaskScheduler::on_block_event(ServerId s, const BlockId& id,
                                   bool inserted) {
  auto& counts = contention_[static_cast<std::size_t>(s)];
  const std::uint64_t key = collection_key(id);
  if (inserted) {
    ++counts[key];
  } else {
    const auto it = counts.find(key);
    if (it != counts.end() && --it->second <= 0) counts.erase(it);
  }
}

int TaskScheduler::unique_collection_partitions(ServerId s) const {
  return static_cast<int>(contention_[static_cast<std::size_t>(s)].size());
}

void TaskScheduler::expire_exclusions() {
  if (app_excluded_until_.empty()) return;
  for (auto it = app_excluded_until_.begin();
       it != app_excluded_until_.end();) {
    if (sim_->now() + 1e-12 >= it->second) {
      // Timed exclusion over: the executor rejoins with a clean slate.
      app_failures_.erase(it->first);
      ++stats_.executor_readmissions;
      app_excluded_mask_[static_cast<std::size_t>(it->first)] = 0;
      it = app_excluded_until_.erase(it);
    } else {
      arm_timer(it->second);
      ++it;
    }
  }
}

void TaskScheduler::rebuild_offer_cache() {
  // Both epochs are monotonic, so their sum changes whenever either does.
  const std::uint64_t key =
      cluster_->topology_epoch() + (detector_ ? detector_->belief_epoch() : 0);
  if (offer_cache_valid_ && key == offer_cache_key_) return;
  offer_cache_key_ = key;
  offer_cache_valid_ = true;
  const int n = cluster_->size();
  offer_servers_.clear();
  offer_base_.assign(static_cast<std::size_t>(n), 0);
  probe_launch_failure_.assign(static_cast<std::size_t>(n), 0);
  for (ServerId s = 0; s < n; ++s) {
    const Server& srv = cluster_->server(s);
    if (!srv.alive()) {
      // A dead server the driver still believes alive: the NODE_LOCAL
      // pass "sends" it a launch RPC whose failure reveals the loss.
      if (detector_ && detector_->believed_alive(s)) {
        probe_launch_failure_[static_cast<std::size_t>(s)] = 1;
      }
      continue;
    }
    // A partitioned executor is skipped too: the launch RPC fails fast, so
    // the driver moves on even before declaring the executor lost.
    if (!srv.reachable()) continue;
    if (detector_ && !detector_->believed_alive(s)) continue;
    // App-wide exclusion is deliberately NOT cached: a verified read can
    // quarantine an executor mid-sweep (plan-time corruption detection
    // charges the excludeOnFailure budget), so offerable() checks it live.
    offer_base_[static_cast<std::size_t>(s)] = 1;
    offer_servers_.push_back(s);
  }
}

bool TaskScheduler::offerable(ServerId s, const ActiveSet& set,
                              int index) const {
  if (offer_base_[static_cast<std::size_t>(s)] == 0) return false;
  if (cluster_->server(s).free_cores() <= 0) return false;
  if (options_.faults.exclude_on_failure) {
    if (static_cast<std::size_t>(s) < app_excluded_mask_.size() &&
        app_excluded_mask_[static_cast<std::size_t>(s)] != 0) {
      return false;
    }
    if (excluded_for_task(s, set, index)) return false;
  }
  return true;
}

bool TaskScheduler::excluded_for_task(ServerId s, const ActiveSet& set,
                                      int index) const {
  if (set.stage_excluded.count(s) != 0) return true;
  for (const auto& [server, failures] :
       set.state[static_cast<std::size_t>(index)].failed_on) {
    if (server == s) {
      return failures >= options_.faults.max_task_attempts_per_executor;
    }
  }
  return false;
}

void TaskScheduler::refresh_sweep_candidates() {
  sweep_candidates_.clear();
  for (ServerId s : offer_servers_) {
    if (cluster_->server(s).free_cores() > 0) sweep_candidates_.push_back(s);
  }
}

ServerId TaskScheduler::pick_remote_server(const ActiveSet& set, int index,
                                           ServerId exclude) {
  if (options_.mcf) {
    // Algorithm 1: ascending by unique collection partitions cached.
    // Believed-Degraded peers (fail-slow scorecards) rank behind every
    // healthy candidate regardless of contention — they still run work
    // when nothing else offers, or when due for a re-admission probe.
    ServerId best = kInvalidId;
    bool best_avoid = false;
    int best_contention = 0;
    int best_free = -1;
    for (ServerId s : sweep_candidates_) {
      if (s == exclude || !offerable(s, set, index)) continue;
      const bool avoid = slowness_ && slowness_->should_avoid(s, sim_->now());
      const Server& srv = cluster_->server(s);
      const int c = unique_collection_partitions(s);
      if (best == kInvalidId || (best_avoid && !avoid) ||
          (avoid == best_avoid &&
           (c < best_contention ||
            (c == best_contention && srv.free_cores() > best_free)))) {
        best = s;
        best_avoid = avoid;
        best_contention = c;
        best_free = srv.free_cores();
      }
    }
    return best;
  }
  // Stock behaviour: all remote workers are treated equally — Spark
  // effectively scatters tasks (and hence cached partitions) randomly.
  pick_scratch_.clear();
  for (ServerId s : sweep_candidates_) {
    if (s != exclude && offerable(s, set, index)) pick_scratch_.push_back(s);
  }
  if (pick_scratch_.empty()) return kInvalidId;
  if (slowness_) {
    // Drop believed-Degraded peers from the random draw unless every
    // candidate is degraded (then any of them beats not launching).
    const SimTime now = sim_->now();
    const auto keep = std::stable_partition(
        pick_scratch_.begin(), pick_scratch_.end(),
        [&](ServerId s) { return !slowness_->should_avoid(s, now); });
    if (keep != pick_scratch_.begin()) {
      pick_scratch_.erase(keep, pick_scratch_.end());
    }
  }
  return pick_scratch_[placement_rng_.next_below(pick_scratch_.size())];
}

void TaskScheduler::arm_timer(SimTime at) {
  if (timer_armed_ && timer_at_ <= at + 1e-12) return;
  timer_armed_ = true;
  timer_at_ = at;
  sim_->at(at, [this, at] {
    if (timer_armed_ && timer_at_ <= at + 1e-12) timer_armed_ = false;
    schedule();
  });
}

bool TaskScheduler::offer_to_set(const std::shared_ptr<ActiveSet>& set,
                                 int& free_cores,
                                 std::set<ServerId>& launch_failures) {
  bool launched = false;
  // NODE_LOCAL pass: launch every pending task that has a preferred
  // server with a free core.
  for (std::size_t scan = set->pending.size(); scan-- > 0;) {
    const int idx = set->pending.front();
    set->pending.pop_front();
    const TaskSpec& task = set->ts->tasks[static_cast<std::size_t>(idx)];
    ServerId local = kInvalidId;
    for (ServerId s : task.preferred) {
      if (probe_launch_failure_[static_cast<std::size_t>(s)] != 0) {
        launch_failures.insert(s);
      }
      // A peer believed compute-slow (cpu/disk Degraded) forfeits its
      // locality preference: fetching the data beats computing at a
      // fraction of the speed. A net-only-degraded peer keeps its local
      // tasks — they don't touch its NIC, and moving them would *create* a
      // fetch over the degraded link. The task falls through to the ANY
      // pass (periodic probes still land here so recovery is observable).
      if (slowness_ != nullptr &&
          slowness_->should_avoid_compute(s, sim_->now())) {
        continue;
      }
      if (offerable(s, *set, idx)) {
        local = s;
        break;
      }
    }
    if (local != kInvalidId) {
      launch(set, idx, local, /*node_local=*/true);
      launched = true;
      --free_cores;
    } else {
      set->pending.push_back(idx);  // keep for ANY pass / next round
    }
    if (free_cores == 0) break;
  }
  if (free_cores > 0 && !set->pending.empty()) {
    // ANY pass, gated by delay scheduling. Tasks with no preferred
    // executor at all sit at the ANY locality level from the start
    // (Spark's pendingTasksWithNoPrefs) and skip the gate.
    const SimTime allowed_at = set->locality_anchor + options_.locality_wait;
    const bool any_allowed =
        !set->has_preferences || sim_->now() + 1e-12 >= allowed_at;
    if (!any_allowed) arm_timer(allowed_at);
    for (std::size_t scan = set->pending.size();
         scan-- > 0 && free_cores > 0;) {
      const int idx = set->pending.front();
      set->pending.pop_front();
      if (!any_allowed &&
          !set->ts->tasks[static_cast<std::size_t>(idx)].preferred.empty()) {
        set->pending.push_back(idx);  // still inside its locality wait
        continue;
      }
      const ServerId s = pick_remote_server(*set, idx);
      if (s == kInvalidId) {
        // No executor the driver is willing to use for this task has a
        // free core right now (exclusions shrink the candidate set
        // per-task, so a sibling may still be placeable).
        set->pending.push_back(idx);
        continue;
      }
      launch(set, idx, s, /*node_local=*/false);
      launched = true;
      --free_cores;
    }
  }
  return launched;
}

void TaskScheduler::schedule() {
  if (in_schedule_) return;  // guard against re-entrant launches
  expire_exclusions();
  // Most calls (every completion under saturation) find no set with
  // pending work; the sweep would only refresh per-server caches that the
  // next sweep with a ready set rebuilds from the same state anyway.
  if (ready_count_ == 0) return;
  in_schedule_ = true;
  bool sweep_again = true;
  while (sweep_again) {
    sweep_again = false;
    rebuild_offer_cache();
    refresh_sweep_candidates();
    // Executors the driver believes alive whose process is gone: the pass
    // below "sends" them launch RPCs that fail, which is how a real driver
    // discovers a crash ahead of the heartbeat timeout. Reported after the
    // sweep (the callback tears into scheduler state), then re-swept.
    std::set<ServerId> launch_failures;
  bool progress = true;
  while (progress) {
    progress = false;
    // Under saturation this function fires on every completion with
    // thousands of queued task sets; bail out the moment the cluster has
    // no free slot instead of scanning every pending task.
    int free_cores = cluster_->total_free_cores();
    if (free_cores == 0) break;
    // Only sets with pending work are scanned: drained-but-running sets
    // (the common case under saturation) never appear in the ready queue,
    // so a pass costs O(ready sets), not O(all live sets).
    //
    // Backlog guard: with a deep ready queue, scanning every blocked set
    // per event is quadratic. After enough consecutive fruitless sets,
    // stop and revisit shortly — at that depth the queueing delay dwarfs
    // the revisit granularity anyway. The timer is only a backstop: any
    // completion that frees a core re-enters schedule() immediately.
    const bool deep_backlog = ready_count_ > options_.deep_backlog_threshold;
    int fruitless = 0;
    // Each step offers the oldest ready set of the bucket with the lowest
    // running-cores/weight ratio (ties: lowest bucket). With fair_share off
    // every set shares bucket 0, so this is the plain FIFO scan. A bucket
    // whose head set cannot place anything is stepped past so its later
    // sets still get offers this pass; the outer progress loop restarts
    // the scan from every bucket's oldest set once anything launches.
    const int nt = static_cast<int>(ready_by_tenant_.size());
    ready_its_.resize(static_cast<std::size_t>(nt));
    for (int t = 0; t < nt; ++t) {
      ready_its_[static_cast<std::size_t>(t)] =
          ready_by_tenant_[static_cast<std::size_t>(t)].begin();
    }
    while (free_cores > 0) {
      if (deep_backlog && fruitless > options_.backlog_fruitless_limit) {
        arm_timer(sim_->now() + options_.backlog_revisit_interval);
        break;
      }
      int best = -1;
      double best_share = 0.0;
      for (int t = 0; t < nt; ++t) {
        if (ready_its_[static_cast<std::size_t>(t)] ==
            ready_by_tenant_[static_cast<std::size_t>(t)].end()) {
          continue;
        }
        const double share = weighted_share(t);
        if (best < 0 || share < best_share) {
          best = t;
          best_share = share;
        }
      }
      if (best < 0) break;  // no bucket has an unvisited ready set
      auto& bit = ready_its_[static_cast<std::size_t>(best)];
      ++fruitless;
      const std::shared_ptr<ActiveSet> set = bit->second;
      if (offer_to_set(set, free_cores, launch_failures)) {
        progress = true;
        fruitless = 0;
      }
      if (set->pending.empty()) {
        set->in_ready = false;
        --ready_count_;
        bit = ready_by_tenant_[static_cast<std::size_t>(best)].erase(bit);
      } else {
        ++bit;
      }
    }
  }
  if (!launch_failures.empty()) {
    for (ServerId s : launch_failures) detector_->report_launch_failure(s);
    sweep_again = true;  // losses changed the placement picture
  }
  }
  in_schedule_ = false;
}

void TaskScheduler::launch(const std::shared_ptr<ActiveSet>& set, int index,
                           ServerId server, bool node_local,
                           bool speculative) {
  Server& srv = cluster_->server(server);
  srv.acquire_core();
  if (node_local) set->locality_anchor = sim_->now();
  ++set->running;
  {
    const auto t = static_cast<std::size_t>(
        set->ts->tenant < 0 ? 0 : set->ts->tenant);
    if (tenant_running_cores_.size() <= t) {
      tenant_running_cores_.resize(t + 1, 0);
    }
    ++tenant_running_cores_[t];
  }

  const TaskSpec& task = set->ts->tasks[static_cast<std::size_t>(index)];
  // The driver serializes and ships tasks one at a time.
  const SimTime launch_time =
      std::max(sim_->now(), driver_idle_at_) + cost_.driver_dispatch_per_task;
  driver_idle_at_ = launch_time;

  TaskPlan plan = set->ts->plan(task, server);
  srv.add_working_set(plan.working_set);
  // Pin every cached block the plan reads (empty unless pinning is on):
  // the plan priced those reads as cache hits, so the eviction policy must
  // not victimize them while the task runs.
  for (const BlockId& id : plan.blocks_referenced) {
    cluster_->pin_block(server, id);
  }
  if (plan.bytes_net > 0.0) ++active_net_flows_;
  if (plan.bytes_disk > 0.0 || plan.bytes_written > 0.0) ++active_disk_flows_;
  const double overhead = cost_.task_launch_overhead;

  RunningTask run;
  run.set = set;
  run.index = index;
  run.server = server;
  run.server_generation = srv.generation();
  run.speculative = speculative;
  if (speculative) ++speculative_launches_;
  run.fetch_failure = plan.fetch_failure;

  // A believed-Degraded server receiving work is a re-admission probe:
  // restart its probe timer so it gets one task per interval, not a flood.
  if (slowness_) slowness_->note_probe(server, sim_->now());

  // Work out whether (and when) this run dies instead of finishing.
  SimTime finish;
  if (run.fetch_failure.has_value()) {
    // The reduce task burns its connection-retry budget against the lost
    // map-output host, then raises FetchFailed. With fail-slow scorecards
    // active the fixed constant is replaced by the adaptive deadline
    // derived from the observed fetch distribution (once warmed up).
    double wait = options_.faults.fetch_fail_seconds;
    if (slowness_ != nullptr) {
      const double adaptive = slowness_->fetch_deadline();
      if (adaptive > 0.0) wait = adaptive;
    }
    finish = launch_time + overhead + wait;
  } else if (flaky_probability_ > 0.0 &&
             flaky_rng_.next_double() < flaky_probability_) {
    // Gray failure: the task crashes partway through its work.
    run.flaky_failure = true;
    finish = launch_time + overhead +
             flaky_rng_.next_double() * plan.work_seconds();
  } else {
    finish = launch_time + overhead + plan.work_seconds();
  }

  run.plan = std::move(plan);
  run.metrics.server = server;
  run.metrics.node_local = node_local;
  run.metrics.submit_time = sim_->now();
  run.metrics.launch_time = launch_time;
  run.metrics.finish_time = finish;
  run.metrics.cpu = run.plan.cpu;
  run.metrics.deserialize = run.plan.deserialize;
  run.metrics.gc = run.plan.gc;
  run.metrics.shuffle_read = run.plan.shuffle_read;
  run.metrics.disk = run.plan.disk;
  run.metrics.remote_read = run.plan.remote;
  run.metrics.overhead = overhead + cost_.driver_dispatch_per_task;
  run.metrics.bytes_from_cache = run.plan.bytes_cache;
  run.metrics.bytes_from_net = run.plan.bytes_net;
  run.metrics.bytes_from_disk = run.plan.bytes_disk;
  run.metrics.bytes_from_remote = run.plan.bytes_remote;
  run.metrics.bytes_written = run.plan.bytes_written;

  if (obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kTaskLaunch;
    e.t0 = e.t1 = launch_time;
    e.job = task.job;
    e.stage = task.stage;
    e.tenant = set->ts->tenant;
    e.task_index = index;
    e.unit = task.unit_id;
    e.attempt = set->state[static_cast<std::size_t>(index)].attempts;
    e.server = server;
    if (node_local) e.flags |= obs::kFlagNodeLocal;
    if (speculative) e.flags |= obs::kFlagSpeculative;
    tracer_->emit(e);
  }

  const std::uint64_t run_id = new_run_id();
  run.id = run_id;
  if (run.fetch_failure.has_value()) {
    run.event = sim_->at(
        finish, [this, run_id] { fail(run_id, TaskFailureKind::kFetchFailed); });
  } else if (run.flaky_failure) {
    run.event = sim_->at(
        finish, [this, run_id] { fail(run_id, TaskFailureKind::kTaskError); });
  } else {
    run.event = sim_->at(finish, [this, run_id] { complete(run_id); });
  }
  by_server_[static_cast<std::size_t>(server)].push_back(run_id);
  set->state[static_cast<std::size_t>(index)].runs.push_back(run_id);
  runs_[slot_of(run_id)] = std::move(run);
  ++live_runs_;
}

void TaskScheduler::release_run_resources(const RunningTask& run) {
  Server& srv = cluster_->server(run.server);
  // Only the incarnation the task was launched on holds the core; a dead
  // or restarted server already reset its slots.
  if (srv.alive() && srv.generation() == run.server_generation) {
    srv.release_core();
    srv.remove_working_set(run.plan.working_set);
  }
  // Unpin the plan's referenced blocks. Safe unconditionally: a killed or
  // restarted incarnation cleared its store (pins died with the entries),
  // and unpinning an absent block is a no-op.
  for (const BlockId& id : run.plan.blocks_referenced) {
    cluster_->unpin_block(run.server, id);
  }
  if (run.plan.bytes_net > 0.0) --active_net_flows_;
  if (run.plan.bytes_disk > 0.0 || run.plan.bytes_written > 0.0) {
    --active_disk_flows_;
  }
  --run.set->running;
  {
    const auto t = static_cast<std::size_t>(
        run.set->ts->tenant < 0 ? 0 : run.set->ts->tenant);
    if (t < tenant_running_cores_.size()) --tenant_running_cores_[t];
  }
  run.set->state[static_cast<std::size_t>(run.index)].runs.erase(run.id);
}

void TaskScheduler::discard_run(std::uint64_t run_id) {
  RunningTask* live = find_run(run_id);
  if (live == nullptr) return;
  const RunningTask run = take_run(*live);
  sim_->cancel(run.event);
  release_run_resources(run);
}

void TaskScheduler::maybe_speculate(const std::shared_ptr<ActiveSet>& set) {
  if (!options_.speculation || speculation_suspended_) return;
  const std::size_t n = set->ts->tasks.size();
  if (set->finished_durations.size() <
      static_cast<std::size_t>(options_.speculation_quantile *
                               static_cast<double>(n))) {
    return;
  }
  std::vector<double> sorted = set->finished_durations;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double threshold = options_.speculation_multiplier * median;
  rebuild_offer_cache();  // pick_remote_server below reads the offer cache
  refresh_sweep_candidates();
  // Snapshot: launching adds to the tasks' in-flight runs.
  std::vector<std::pair<int, std::uint64_t>> candidates;
  for (std::size_t index = 0; index < set->state.size(); ++index) {
    const TaskState& t = set->state[index];
    if (t.done || t.speculated || t.runs.size() != 1) continue;
    candidates.emplace_back(static_cast<int>(index), t.runs.front());
  }
  for (const auto& [index, run_id] : candidates) {
    const RunningTask* run = find_run(run_id);
    if (run == nullptr) continue;
    const auto& m = run->metrics;
    if (m.finish_time - m.launch_time <= threshold) continue;
    if (m.finish_time - sim_->now() <= 0.0) continue;  // about to finish
    const ServerId s =
        pick_remote_server(*set, index, /*exclude=*/run->server);
    if (s == kInvalidId) continue;
    set->state[static_cast<std::size_t>(index)].speculated = true;
    launch(set, index, s, /*node_local=*/false, /*speculative=*/true);
  }
}

void TaskScheduler::finish_set_if_done(const std::shared_ptr<ActiveSet>& set) {
  if (set->aborted) return;
  if (set->pending.empty() && set->parked == 0 &&
      set->backoff_pending == 0 && set->running == 0 &&
      set->finished == static_cast<int>(set->ts->tasks.size())) {
    detach_set(set);
    if (set->ts->all_done) set->ts->all_done();
  }
}

void TaskScheduler::complete(std::uint64_t run_id) {
  RunningTask* live = find_run(run_id);
  if (live == nullptr) return;
  {
    const RunningTask& r = *live;
    const Server& srv = cluster_->server(r.server);
    if (!srv.alive() || srv.generation() != r.server_generation) {
      // Zombie: the incarnation that ran this task is gone but the driver
      // has not detected it yet. handle_server_failure() will clean up.
      return;
    }
    if (!srv.reachable()) {
      // The task finished, but the result cannot reach the driver. Deliver
      // it if the partition heals; requeue it if detection fires first.
      deferred_[static_cast<std::size_t>(r.server)].push_back(run_id);
      return;
    }
  }
  RunningTask run = take_run(*live);

  Server& srv = cluster_->server(run.server);
  srv.add_busy_seconds(run.metrics.duration());
  release_run_resources(run);

  auto& set = run.set;
  TaskState& state = set->state[static_cast<std::size_t>(run.index)];
  if (state.done) {
    // A copy that lost the race but whose cancellation raced the event.
    schedule();
    return;
  }
  // This copy wins; kill any sibling still running.
  state.done = true;
  if (run.speculative) ++speculative_wins_;
  const TaskRuns siblings = state.runs;  // copy: discard_run edits it
  for (const std::uint64_t sibling : siblings) discard_run(sibling);
  state.runs.clear();

  for (const auto& block : run.plan.blocks_to_cache) {
    // The plan predates completion; a dataset freed in between must not
    // have its recomputed partitions resurrected into a dead cache.
    if (block_insert_filter_ && !block_insert_filter_(block.id)) continue;
    cluster_->insert_block(run.server, block.id, block.bytes,
                           block.spill_on_evict, block.recompute_cost,
                           set->ts->tenant);
  }

  ++set->finished;
  ++tasks_completed_;
  set->finished_durations.push_back(run.metrics.duration());
  if (slowness_ && run.plan.slowness.has_value()) {
    // Feed the fail-slow scorecards from the winning copy only, so a
    // cancelled speculative sibling never double-reports an observation.
    const TaskPlan::SlownessObs& so = *run.plan.slowness;
    const SimTime now = sim_->now();
    if (run.plan.cpu > 0.0) {
      slowness_->observe(run.server, SlowResource::kCpu, so.cpu_ratio, now);
    }
    if (run.plan.bytes_disk > 0.0 || run.plan.bytes_written > 0.0) {
      slowness_->observe(run.server, SlowResource::kDisk, so.disk_ratio, now);
    }
    for (const auto& [source, ratio] : so.source_net) {
      slowness_->observe(source, SlowResource::kNet, ratio, now);
    }
    if (so.fetch_seconds > 0.0) {
      slowness_->observe_fetch_seconds(so.fetch_seconds);
    }
  }
  const TaskSpec& task = set->ts->tasks[static_cast<std::size_t>(run.index)];
  if (obs::Tracer::active(tracer_)) {
    // Exactly one finish span per logical task: the winning copy.
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kTaskFinish;
    e.t0 = run.metrics.launch_time;
    e.t1 = run.metrics.finish_time;
    e.job = task.job;
    e.stage = task.stage;
    e.tenant = set->ts->tenant;
    e.task_index = run.index;
    e.unit = task.unit_id;
    e.attempt = state.attempts;
    e.server = run.server;
    e.flags |= obs::kFlagCompleted;
    if (run.metrics.node_local) e.flags |= obs::kFlagNodeLocal;
    if (run.speculative) e.flags |= obs::kFlagSpeculative;
    e.bytes = run.metrics.bytes_from_cache + run.metrics.bytes_from_net +
              run.metrics.bytes_from_disk + run.metrics.bytes_from_remote;
    e.phases.sched_delay = run.metrics.queue_delay();
    e.phases.deserialize = run.metrics.deserialize;
    e.phases.compute = run.metrics.cpu - run.metrics.deserialize;
    e.phases.gc = run.metrics.gc;
    e.phases.shuffle_read = run.metrics.shuffle_read;
    e.phases.disk = run.metrics.disk;
    e.phases.remote_read = run.metrics.remote_read;
    e.phases.overhead = run.metrics.overhead;
    tracer_->emit(e);
  }
  if (set->ts->task_done) set->ts->task_done(task, run.metrics);
  finish_set_if_done(set);
  if (!set->aborted && set->finished < static_cast<int>(set->ts->tasks.size())) {
    maybe_speculate(set);
  }
  schedule();
}

void TaskScheduler::record_task_error(ActiveSet& set, int index,
                                      ServerId server) {
  if (!options_.faults.exclude_on_failure) return;
  // Per-task: never retry this task on an executor it failed on (once
  // max_task_attempts_per_executor is used up).
  auto& failed_on = set.state[static_cast<std::size_t>(index)].failed_on;
  auto it = std::find_if(failed_on.begin(), failed_on.end(),
                         [server](const auto& e) { return e.first == server; });
  if (it == failed_on.end()) it = failed_on.insert(it, {server, 0});
  ++it->second;
  // Per-stage: enough failures within one task set exclude the executor
  // for the rest of the stage.
  if (++set.stage_failures[server] >=
      options_.faults.max_failures_per_executor_stage) {
    set.stage_excluded.insert(server);
  }
  // Application-wide: repeated failures across stages exclude the executor
  // cluster-wide for exclude_timeout seconds.
  charge_app_failure(server);
}

void TaskScheduler::charge_app_failure(ServerId server) {
  if (++app_failures_[server] >= options_.faults.max_failures_per_executor &&
      app_excluded_until_.count(server) == 0) {
    app_excluded_until_[server] =
        sim_->now() + options_.faults.exclude_timeout;
    if (app_excluded_mask_.size() < static_cast<std::size_t>(cluster_->size())) {
      app_excluded_mask_.resize(static_cast<std::size_t>(cluster_->size()), 0);
    }
    app_excluded_mask_[static_cast<std::size_t>(server)] = 1;
    ++stats_.executor_exclusions;
    arm_timer(app_excluded_until_[server]);
    STARK_LOG_DEBUG("excluded executor %d until %.3f", server,
                    app_excluded_until_[server]);
  }
}

void TaskScheduler::record_integrity_failure(ServerId server) {
  // Quarantine: a corruption detected on this executor's storage counts
  // against its application-wide excludeOnFailure budget. There is no
  // failed task to charge (the read was rescued at plan time), so the
  // per-task and per-stage counters are left alone.
  if (!options_.faults.exclude_on_failure ||
      !options_.faults.quarantine_on_corruption) {
    return;
  }
  charge_app_failure(server);
}

void TaskScheduler::emit_retry(const ActiveSet& set, int index) {
  if (!obs::Tracer::active(tracer_)) return;
  obs::TraceEvent e;
  e.kind = obs::TraceKind::kTaskRetry;
  e.t0 = e.t1 = sim_->now();
  e.job = set.ts->job;
  e.stage = set.ts->stage;
  e.task_index = index;
  e.unit = set.ts->tasks[static_cast<std::size_t>(index)].unit_id;
  e.attempt = set.state[static_cast<std::size_t>(index)].attempts;
  tracer_->emit(e);
}

void TaskScheduler::requeue_with_backoff(const std::shared_ptr<ActiveSet>& set,
                                         int index) {
  const int attempts = set->state[static_cast<std::size_t>(index)].attempts;
  const double delay =
      std::min(options_.faults.retry_backoff *
                   std::pow(2.0, std::max(0, attempts - 1)),
               options_.faults.retry_backoff_max);
  ++stats_.task_retries;
  emit_retry(*set, index);
  ++set->backoff_pending;
  sim_->after(delay, [this, set, index] {
    --set->backoff_pending;
    TaskState& state = set->state[static_cast<std::size_t>(index)];
    if (set->aborted || state.done) return;
    state.speculated = false;
    set->pending.push_back(index);
    mark_ready(set);
    schedule();
  });
}

void TaskScheduler::teardown(const std::shared_ptr<ActiveSet>& set) {
  set->aborted = true;
  detach_set(set);
  // Discard every copy still in flight, in run-id (launch) order.
  std::vector<std::uint64_t> run_ids;
  for (const TaskState& t : set->state) {
    run_ids.insert(run_ids.end(), t.runs.begin(), t.runs.end());
  }
  std::sort(run_ids.begin(), run_ids.end());
  for (const std::uint64_t id : run_ids) discard_run(id);
  set->pending.clear();
}

void TaskScheduler::abort_set(const std::shared_ptr<ActiveSet>& set,
                              const std::string& reason) {
  if (set->aborted) return;
  teardown(set);
  STARK_LOG_INFO("aborting task set (job %d stage %d): %s", set->ts->job,
                 set->ts->stage, reason.c_str());
  if (set->ts->on_abort) set->ts->on_abort(reason);
}

void TaskScheduler::fail(std::uint64_t run_id, TaskFailureKind kind) {
  RunningTask* live = find_run(run_id);
  if (live == nullptr) return;
  {
    const RunningTask& r = *live;
    const Server& srv = cluster_->server(r.server);
    if (kind != TaskFailureKind::kExecutorLost &&
        (!srv.alive() || srv.generation() != r.server_generation)) {
      // The executor died before the task could even fail; the loss path
      // owns the cleanup.
      return;
    }
  }
  RunningTask run = take_run(*live);
  sim_->cancel(run.event);
  release_run_resources(run);

  auto& set = run.set;
  TaskState& state = set->state[static_cast<std::size_t>(run.index)];
  if (set->aborted || state.done) {
    schedule();
    return;
  }
  ++stats_.task_failures;
  // Fetch failures count against the *stage* (resubmission attempts), not
  // the task's own retry budget — mirroring Spark's TaskSetManager.
  if (kind != TaskFailureKind::kFetchFailed) ++state.attempts;
  if (kind == TaskFailureKind::kTaskError) {
    record_task_error(*set, run.index, run.server);
  }
  if (obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kTaskFail;
    e.code = static_cast<std::int16_t>(kind);
    e.t0 = e.t1 = sim_->now();
    e.job = set->ts->job;
    e.stage = set->ts->stage;
    e.task_index = run.index;
    e.unit = set->ts->tasks[static_cast<std::size_t>(run.index)].unit_id;
    e.attempt = state.attempts;
    e.server = run.server;
    if (run.speculative) e.flags |= obs::kFlagSpeculative;
    tracer_->emit(e);
  }

  if (!state.runs.empty()) {
    // A speculative copy is still running; let it race. The task_failed
    // notification is deliberately skipped: its driver-side accounting
    // (fetch-failure counters, stage-attempt bumps, shuffle rebuilds) must
    // fire once per *logical* failure, and the surviving copy's outcome
    // decides whether the stage actually failed. Notifying here too made
    // an original + speculative pair that both hit FetchFailed charge the
    // failure wave twice.
    schedule();
    return;
  }
  TaskFailureAction action = TaskFailureAction::kRetry;
  if (set->ts->task_failed) {
    TaskFailure failure;
    failure.kind = kind;
    failure.server = run.server;
    failure.attempts = state.attempts;
    if (run.fetch_failure.has_value()) {
      failure.shuffle = run.fetch_failure->shuffle;
      failure.fetch_source = run.fetch_failure->source;
    }
    const TaskSpec& task =
        set->ts->tasks[static_cast<std::size_t>(run.index)];
    action = set->ts->task_failed(task, failure);
  }
  if (set->aborted) {  // the callback may have aborted the whole job
    schedule();
    return;
  }
  if (action == TaskFailureAction::kPark) {
    // Zombie the whole set, like Spark does on FetchFailed: launching the
    // siblings now would only replay the same doomed fetch. Everything not
    // yet finished waits for the unpark: the failed task joins the pending
    // ones, and all of them park.
    set->pending.push_back(run.index);
    for (const int idx : set->pending) {
      TaskState& t = set->state[static_cast<std::size_t>(idx)];
      if (!t.parked) {
        t.parked = true;
        ++set->parked;
      }
    }
    set->pending.clear();
    unready(*set);
    schedule();
    return;
  }
  const int attempts = state.attempts;
  if (attempts >= options_.faults.max_task_failures) {
    abort_set(set, "task " + std::to_string(run.index) + " failed " +
                       std::to_string(attempts) + " times (max " +
                       std::to_string(options_.faults.max_task_failures) +
                       ")");
    schedule();
    return;
  }
  // Unschedulable task: it already failed on every live executor it is
  // still allowed to run on. Spark aborts rather than spin forever.
  if (options_.faults.exclude_on_failure) {
    bool placeable = false;
    for (ServerId s = 0; s < cluster_->size() && !placeable; ++s) {
      placeable = cluster_->server(s).alive() &&
                  !excluded_for_task(s, *set, run.index);
    }
    if (!placeable) {
      abort_set(set, "task " + std::to_string(run.index) +
                         " cannot be scheduled on any live executor "
                         "(excludeOnFailure)");
      schedule();
      return;
    }
  }
  if (kind == TaskFailureKind::kExecutorLost) {
    // Executor loss requeues immediately: the task did nothing wrong.
    state.speculated = false;
    set->pending.push_back(run.index);
    mark_ready(set);
    ++stats_.task_retries;
    emit_retry(*set, run.index);
  } else {
    requeue_with_backoff(set, run.index);
  }
  schedule();
}

void TaskScheduler::handle_server_failure(ServerId s) {
  auto& on_server = by_server_[static_cast<std::size_t>(s)];
  // Fail every run the driver believed was on s — including results that
  // finished behind a partition but were never delivered — in launch
  // order. fail() edits the list, so walk a sorted copy.
  std::vector<std::uint64_t> ordered = on_server;
  std::sort(ordered.begin(), ordered.end());
  for (std::uint64_t run_id : ordered) {
    fail(run_id, TaskFailureKind::kExecutorLost);
  }
  // Runs the callbacks above launched on s are forgotten with the rest.
  on_server.clear();
  deferred_[static_cast<std::size_t>(s)].clear();
  contention_[static_cast<std::size_t>(s)].clear();
  schedule();
}

void TaskScheduler::on_server_healed(ServerId s) {
  const std::vector<std::uint64_t> run_ids =
      std::exchange(deferred_[static_cast<std::size_t>(s)], {});
  for (std::uint64_t run_id : run_ids) {
    RunningTask* run = find_run(run_id);
    if (run == nullptr) continue;
    // The result reaches the driver only now.
    run->metrics.finish_time = sim_->now();
    complete(run_id);
  }
  schedule();
}

void TaskScheduler::unpark(JobId job, StageId stage) {
  const auto it = by_job_.find(job);
  if (it != by_job_.end()) {
    // The job's sets of this stage in submission order; each requeues its
    // parked tasks in index order.
    for (const auto& set : it->second) {
      if (set->ts->stage != stage || set->parked == 0) continue;
      for (std::size_t i = 0; i < set->state.size(); ++i) {
        if (!std::exchange(set->state[i].parked, false)) continue;
        set->pending.push_back(static_cast<int>(i));
      }
      set->parked = 0;
      mark_ready(set);
    }
  }
  schedule();
}

void TaskScheduler::cancel_job(JobId job) {
  std::vector<std::shared_ptr<ActiveSet>> doomed;
  const auto it = by_job_.find(job);
  if (it != by_job_.end()) doomed = it->second;  // copy: detach mutates it
  for (const auto& set : doomed) teardown(set);
  schedule();
}

}  // namespace stark
