#include "sched/dag_scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/log.h"

namespace stark {

DagScheduler::DagScheduler(sim::Simulation& sim, Cluster& cluster,
                           const CostModel& cost, LocalityManager& locality,
                           GroupManager& groups, DagOptions options)
    : sim_(&sim),
      cluster_(&cluster),
      cost_(cost),
      locality_(&locality),
      groups_(&groups),
      options_(options),
      task_scheduler_(
          sim, cluster, cost,
          [&options] {
            TaskScheduler::Options o;
            o.mcf = options.mcf;
            o.locality_wait = options.locality_wait;
            o.speculation = options.speculation;
            o.faults = options.faults;
            o.fair_share = options.tenants.fair_share;
            return o;
          }(),
          [this](DatasetId id) { return groups_->ns_of_dataset(id); }),
      stats_(task_scheduler_.failure_stats()),
      admission_(options.overload),
      tenants_(options.tenants) {
  if (options_.faults.slowness.enabled) {
    // Fail-slow scorecards: one tracker shared with the TaskScheduler
    // (placement deprioritization, adaptive fetch timeouts, observation
    // feed from completed runs). Band transitions become trace instants.
    slowness_ = std::make_unique<SlownessTracker>(options_.faults.slowness,
                                                  cluster.size());
    slowness_->set_band_change(
        [this](ServerId s, SlowBand old_band, SlowBand new_band) {
          if (!obs::Tracer::active(tracer_)) return;
          obs::TraceEvent e;
          e.kind = obs::TraceKind::kSlownessBand;
          e.t0 = e.t1 = sim_->now();
          e.server = s;
          e.code = static_cast<std::int16_t>(new_band);
          e.attempt = static_cast<int>(old_band);
          tracer_->emit(e);
        });
    task_scheduler_.set_slowness_tracker(slowness_.get());
  }
  if (options_.auto_cache.enabled()) {
    // Automatic cache management: last-use auto-free (and, under kFull,
    // reuse-ranked promotion). Pull-based — it acts inside submit /
    // stage-release / job-finish hooks, never via standing events.
    advisor_ = std::make_unique<CacheAdvisor>(
        cluster, options_.auto_cache,
        [this](const Dataset& ds) { return recompute_delay(ds); });
    advisor_->set_event_fn([this](DatasetId id, const DatasetPtr& ds,
                                  Bytes bytes, bool promoted) {
      // A freed dataset with no handle left needs no veto: nothing can
      // recompute it.
      if (!promoted && ds != nullptr) veto_reinsertion(ds);
      if (!obs::Tracer::active(tracer_)) return;
      obs::TraceEvent e;
      e.kind = promoted ? obs::TraceKind::kAutoCache
                        : obs::TraceKind::kAutoFree;
      e.t0 = e.t1 = sim_->now();
      e.dataset = id;
      e.bytes = bytes;
      tracer_->emit(e);
    });
    install_insert_filter();
  }
  // Configured tenants got ids 1..N in declaration order; wire their
  // fair-share weights and admission overrides into the schedulers.
  for (std::size_t i = 0; i < options.tenants.tenants.size(); ++i) {
    const TenantOptions& t = options.tenants.tenants[i];
    const TenantId id = static_cast<TenantId>(i + 1);
    task_scheduler_.set_tenant_weight(id, t.weight);
    admission_.set_tenant_limits(id, t.max_in_flight_jobs, t.max_pending_jobs);
  }
  // A fresh insert of a block whose corruption was detected earlier means
  // lineage recompute rewrote it clean: the corruption is repaired.
  cluster.add_block_observer(
      [this](ServerId, const BlockId& id, bool inserted) {
        if (inserted && pending_block_repair_.erase(id) > 0) {
          ++stats_.corruptions_repaired;
        }
      });
}

JobId DagScheduler::submit(DatasetPtr final, ActionType action,
                           SubmitOptions opts, JobCallback cb) {
  if (final == nullptr) throw std::invalid_argument("submit: null dataset");
  const JobId id = next_job_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->action = action;
  job->final = std::move(final);
  job->cb = std::move(cb);
  job->tenant = tenants_.resolve(opts.tenant);
  job->lane = std::move(opts.lane);
  job->priority = opts.priority;
  job->deadline_seconds = opts.deadline_seconds;
  job->result.id = id;
  job->result.tenant_id = job->tenant;
  job->result.tenant = tenants_.name(job->tenant);
  job->result.submit_time = sim_->now();
  Job& ref = *job;
  jobs_.emplace(id, std::move(job));

  if (obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kJobSubmit;
    e.t0 = e.t1 = sim_->now();
    e.job = id;
    e.tenant = ref.tenant;
    tracer_->emit(e);
  }

  // The deadline covers the job's whole driver-side lifetime, queueing
  // included: an interactive caller does not care *where* its time went.
  arm_deadline(ref);

  if (!options_.overload.admission_enabled) {
    ref.dispatched = true;
    start_job(ref);
    return id;
  }

  const PressureBand band = sample_pressure();
  const AdmissionController::Decision d =
      admission_.admit(ref.admission_key(), id, ref.priority, band);
  emit_admission_verdict(ref, d.verdict);
  switch (d.verdict) {
    case AdmissionVerdict::kAdmit:
      ++tenant_stats(ref.tenant).jobs_admitted;
      ref.dispatched = true;
      start_job(ref);
      break;
    case AdmissionVerdict::kQueue:
      ++tenant_stats(ref.tenant).jobs_queued;
      ref.queued = true;
      break;
    case AdmissionVerdict::kReject:
      ++tenant_stats(ref.tenant).jobs_rejected;
      close_undispatched(ref, JobStatus::kRejected,
                         "rejected at admission (pending queue full)");
      break;
    case AdmissionVerdict::kShed: {
      // The arrival took the queue slot of the lane's lowest-priority
      // oldest pending job; close the victim (its callback fires now,
      // with kShed).
      ++tenant_stats(ref.tenant).jobs_queued;
      ref.queued = true;
      const auto vit = jobs_.find(d.shed);
      if (vit != jobs_.end()) {
        ++tenant_stats(vit->second->tenant).jobs_shed;
        close_undispatched(*vit->second, JobStatus::kShed,
                           "shed from pending queue (shed-oldest)");
      }
      break;
    }
  }
  return id;
}

void DagScheduler::start_job(Job& ref) {
  // Make the lineage known to the group manager (ns resolution for MCF).
  for (const auto& ds :
       collect_stage_chain(ref.final, [](DatasetId) { return false; })
           .datasets) {
    groups_->note_dataset(*ds);
  }

  build_stage(ref, ref.final, std::nullopt);
  ref.result.num_stages = static_cast<int>(ref.stages.size());

  if (advisor_) {
    // Reclaim datasets dead past their grace period *before* this job's
    // tasks plan, so the freed RAM is available to them.
    advisor_->sweep(sim_->now());
    if (options_.auto_cache.mode == AutoCacheMode::kFull) {
      const auto promoted =
          advisor_->select_promotions(ref.id, sim_->now());
      // Freshly promoted datasets joined the cache *after* build_stage
      // charged lineage refcounts; retro-charge this job's stages so the
      // kLrc policy sees them referenced while the job runs.
      for (const DatasetPtr& ds : promoted) {
        for (const auto& stage : ref.stages) {
          for (const auto& cds : stage->chain.datasets) {
            if (cds->id() == ds->id()) {
              cluster_->bump_lineage_refcount(ds->id(), +1);
              stage->lineage_charged.push_back(ds->id());
              break;
            }
          }
        }
      }
    }
  }

  // Launch every stage whose parents are already satisfied. Snapshot the
  // count: a completing map stage can append resubmission stages.
  const std::size_t built = ref.stages.size();
  for (std::size_t i = 0; i < built; ++i) maybe_launch(*ref.stages[i]);
}

void DagScheduler::close_undispatched(Job& job, JobStatus status,
                                      std::string reason) {
  if (job.done) return;
  close_job(job, status, std::move(reason));
  deliver_result(job);
}

void DagScheduler::close_job(Job& job, JobStatus status, std::string reason) {
  job.done = true;
  job.queued = false;
  JobResult& r = job.result;
  r.completed = status == JobStatus::kCompleted;
  r.status = status;
  r.failure_reason = std::move(reason);
  r.finish_time = sim_->now();
  r.delay = r.finish_time - r.submit_time;
  collect_stage_breakdowns(job);
  if (job.deadline_event) sim_->cancel(*job.deadline_event);
  release_admission_slot(job);
  if (obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kJobFinish;
    e.t0 = r.submit_time;
    e.t1 = r.finish_time;
    e.job = job.id;
    e.tenant = job.tenant;
    // A job closed before dispatch ran no stage: task_index stays -1.
    if (!job.stages.empty()) e.task_index = r.num_tasks;
    if (r.completed) e.flags |= obs::kFlagCompleted;
    tracer_->emit(e);
  }
}

void DagScheduler::deliver_result(Job& job) {
  const JobId id = job.id;
  const JobResult& r =
      results_.emplace(id, std::move(job.result)).first->second;
  if (const JobCallback cb = std::move(job.cb)) cb(r);
  jobs_.erase(id);  // `job` is dangling from here on
}

void DagScheduler::arm_deadline(Job& job) {
  const double deadline = job.deadline_seconds > 0.0
                              ? job.deadline_seconds
                              : options_.overload.deadline_seconds;
  if (deadline <= 0.0) return;
  job.deadline_event =
      sim_->after(deadline, [this, id = job.id] { on_deadline(id); });
}

void DagScheduler::on_deadline(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->done) return;
  Job& job = *it->second;
  ++tenant_stats(job.tenant).deadline_exceeded;
  if (obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kDeadlineExceeded;
    e.t0 = e.t1 = sim_->now();
    e.job = id;
    e.tenant = job.tenant;
    if (job.final) e.dataset = job.final->id();
    tracer_->emit(e);
  }
  const double deadline = job.deadline_seconds > 0.0
                              ? job.deadline_seconds
                              : options_.overload.deadline_seconds;
  const std::string reason =
      "deadline exceeded (" + std::to_string(deadline) + " s)";
  if (job.queued) {
    admission_.remove_pending(job.admission_key(), id);
    close_undispatched(job, JobStatus::kDeadlineExceeded, reason);
  } else {
    abort_job(job, reason, JobStatus::kDeadlineExceeded);
  }
}

PressureBand DagScheduler::sample_pressure() {
  if (!pressure_fn_) return last_band_;  // permanently Green when unwired
  const PressureBand band = pressure_fn_();
  if (band != last_band_) {
    ++pressure_transitions_;
    if (band == PressureBand::kRed) ++red_entries_;
    if (obs::Tracer::active(tracer_)) {
      obs::TraceEvent e;
      e.kind = obs::TraceKind::kPressureBand;
      e.t0 = e.t1 = sim_->now();
      e.code = static_cast<std::int16_t>(band);
      e.attempt = static_cast<int>(last_band_);
      tracer_->emit(e);
    }
    // Degrade mode: Red suspends speculative copies (running ones keep
    // racing); leaving Red lifts the suspension.
    task_scheduler_.set_speculation_suspended(band == PressureBand::kRed);
    last_band_ = band;
  }
  return band;
}

void DagScheduler::release_admission_slot(Job& job) {
  if (!options_.overload.admission_enabled || !job.dispatched) return;
  job.dispatched = false;
  admission_.release(job.admission_key());
}

void DagScheduler::drain_admission_queue() {
  if (!options_.overload.admission_enabled || draining_admission_) return;
  draining_admission_ = true;
  const PressureBand band = sample_pressure();
  AdmissionKey key;
  JobId next;
  while ((next = admission_.next_dispatchable(band, &key)) != kInvalidId) {
    const auto it = jobs_.find(next);
    if (it == jobs_.end()) {
      // The queued job vanished without going through a close path; give
      // the slot back rather than leak it.
      admission_.release(key);
      continue;
    }
    Job& job = *it->second;
    job.queued = false;
    job.dispatched = true;
    start_job(job);
  }
  draining_admission_ = false;
}

void DagScheduler::emit_admission_verdict(const Job& job,
                                          AdmissionVerdict verdict) {
  if (!obs::Tracer::active(tracer_)) return;
  obs::TraceEvent e;
  e.kind = obs::TraceKind::kAdmissionVerdict;
  e.t0 = e.t1 = sim_->now();
  e.job = job.id;
  e.code = static_cast<std::int16_t>(verdict);
  e.tenant = job.tenant;
  if (job.final) e.dataset = job.final->id();
  tracer_->emit(e);
}

OverloadStats& DagScheduler::tenant_stats(TenantId tenant) {
  const auto idx = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
  if (tenant_overload_.size() <= idx) tenant_overload_.resize(idx + 1);
  return tenant_overload_[idx];
}

OverloadStats DagScheduler::overload_stats() const noexcept {
  OverloadStats sum;
  for (const OverloadStats& t : tenant_overload_) {
    sum.jobs_admitted += t.jobs_admitted;
    sum.jobs_queued += t.jobs_queued;
    sum.jobs_rejected += t.jobs_rejected;
    sum.jobs_shed += t.jobs_shed;
    sum.deadline_exceeded += t.deadline_exceeded;
  }
  sum.pressure_transitions = pressure_transitions_;
  sum.red_entries = red_entries_;
  return sum;
}

DagScheduler::StageRun* DagScheduler::build_stage(
    Job& job, const DatasetPtr& boundary, std::optional<ShuffleEdge> output) {
  auto stage = std::make_unique<StageRun>();
  stage->id = next_stage_id_++;
  stage->job = &job;
  stage->boundary = boundary;
  stage->output = std::move(output);
  stage->chain = collect_stage_chain(
      boundary, [this](DatasetId id) { return is_checkpointed(id); });
  stage->breakdown.stage = stage->id;
  stage->breakdown.shuffle_map = stage->output.has_value();
  StageRun* raw = stage.get();
  job.stages.push_back(std::move(stage));
  ++job.stages_remaining;

  // Lineage-refcount charge (kLrc eviction feed): every cached dataset this
  // stage's chain can read keeps a reference until the stage truly completes,
  // so the policy protects blocks that queued/running work still needs.
  for (const auto& ds : raw->chain.datasets) {
    if (ds->cache_requested()) {
      cluster_->bump_lineage_refcount(ds->id(), +1);
      raw->lineage_charged.push_back(ds->id());
    }
  }

  if (advisor_) {
    // Advisor bookkeeping mirrors the LRC charge but covers *every* chain
    // dataset: live-stage counts drive last-use detection, and
    // distinct-job re-references feed the cross-job reuse score.
    for (const auto& ds : raw->chain.datasets) {
      advisor_->on_stage_reference(ds, job.id, sim_->now());
      raw->advisor_charged.push_back(ds->id());
    }
  }
  if (!retired_.empty()) {
    // A retired dataset referenced by a new job is live again: lift the
    // re-insertion veto so its recompute can cache normally.
    for (const auto& ds : raw->chain.datasets) retired_.erase(ds->id());
  }

  for (const auto& edge : raw->chain.shuffle_deps) {
    Shuffle& sh = shuffles_[edge.key()];
    if (sh.done) continue;
    ++raw->waiting_parents;
    sh.waiters.push_back(raw);
    if (!sh.building) {
      sh.building = true;
      build_stage(job, edge.map_side(), edge);
    }
  }
  return raw;
}

bool DagScheduler::output_host_healthy(ServerId s) const {
  if (s == kInvalidId) return false;
  const Server& srv = cluster_->server(s);
  return srv.alive() && srv.reachable();
}

bool DagScheduler::shuffle_healthy(const Shuffle& shuffle) const {
  if (shuffle.outputs.empty()) return false;
  for (const MapOutput& out : shuffle.outputs) {
    if (!output_host_healthy(out.host)) return false;
  }
  return true;
}

void DagScheduler::maybe_launch(StageRun& stage) {
  if (stage.launched || stage.waiting_parents > 0) return;
  stage.launched = true;

  const DatasetPtr& ds = stage.boundary;
  const auto units = groups_->units_for(*ds);

  // For map stages, only launch units whose output is not already sitting
  // on a healthy host. This one code path serves the initial build, partial
  // resubmission after a fetch failure, and cross-job rebuilds alike. A
  // unit-count change (Stark-E regrouping) forces a full rebuild.
  std::vector<std::size_t> todo;
  todo.reserve(units.size());
  if (stage.output.has_value()) {
    auto& outs = shuffles_[stage.output->key()].outputs;
    if (outs.size() != units.size()) outs.assign(units.size(), {});
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (output_host_healthy(outs[i].host)) continue;
      outs[i] = {};
      todo.push_back(i);
    }
    if (todo.empty()) {
      // Every unit survived (e.g. the lost outputs were regenerated by
      // another job while this stage waited): nothing to run.
      on_stage_complete(stage);
      return;
    }
  } else {
    for (std::size_t i = 0; i < units.size(); ++i) todo.push_back(i);
  }

  if (obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kStageSubmit;
    e.t0 = e.t1 = sim_->now();
    e.job = stage.job->id;
    e.stage = stage.id;
    e.attempt = stage.attempts;
    e.task_index = static_cast<int>(todo.size());  // tasks in this launch
    if (stage.output.has_value()) e.flags |= obs::kFlagShuffleMap;
    tracer_->emit(e);
  }

  auto ts = std::make_shared<TaskScheduler::TaskSet>();
  ts->job = stage.job->id;
  ts->stage = stage.id;
  ts->tenant = stage.job->tenant;
  ts->tasks.reserve(todo.size());
  stage.task_unit_pos.clear();
  stage.task_unit_pos.reserve(todo.size());
  for (std::size_t t = 0; t < todo.size(); ++t) {
    const std::size_t i = todo[t];
    TaskSpec spec;
    spec.job = stage.job->id;
    spec.stage = stage.id;
    spec.index = static_cast<int>(t);
    spec.unit_id = units[i].unit_id;
    spec.lo = units[i].lo;
    spec.hi = units[i].hi;
    spec.preferred =
        preferred_servers(stage, spec.unit_id, spec.lo, spec.hi);
    ts->tasks.push_back(std::move(spec));
    stage.task_unit_pos.push_back(static_cast<int>(i));
  }
  StageRun* stage_ptr = &stage;
  ts->plan = [this, stage_ptr](const TaskSpec& task, ServerId server) {
    return plan_task(*stage_ptr, task, server);
  };
  ts->task_done = [this, stage_ptr](const TaskSpec& task,
                                    const TaskMetrics& m) {
    // Replica learning happens at the block level (see api::Context's block
    // observer): any namespaced block materializing on an executor makes it
    // an additional home for its unit.
    if (stage_ptr->output.has_value()) {
      // MapOutputTracker registration. A re-registered unit is a clean
      // rewrite: its checksum tag is fresh, and if its corruption was
      // detected earlier it now counts repaired.
      Shuffle& sh = shuffles_[stage_ptr->output->key()];
      const int pos =
          stage_ptr->task_unit_pos[static_cast<std::size_t>(task.index)];
      sh.outputs[static_cast<std::size_t>(pos)] = {m.server};
      if (sh.repair.erase(pos) > 0) ++stats_.corruptions_repaired;
    }
    JobResult& r = stage_ptr->job->result;
    ++r.num_tasks;
    if (m.node_local) ++r.node_local_tasks;
    r.total_cpu += m.cpu;
    r.total_gc += m.gc;
    r.total_shuffle_read += m.shuffle_read;
    r.bytes_from_cache += m.bytes_from_cache;
    r.bytes_from_net += m.bytes_from_net;
    r.bytes_from_disk += m.bytes_from_disk;
    r.bytes_from_remote += m.bytes_from_remote;
    StageBreakdown& b = stage_ptr->breakdown;
    if (b.num_tasks == 0 || m.launch_time < b.first_launch) {
      b.first_launch = m.launch_time;
    }
    b.last_finish = std::max(b.last_finish, m.finish_time);
    ++b.num_tasks;
    if (m.node_local) ++b.node_local_tasks;
    b.sched_delay += m.queue_delay();
    b.deserialize += m.deserialize;
    b.compute += m.cpu - m.deserialize;
    b.gc += m.gc;
    b.shuffle_read += m.shuffle_read;
    b.disk += m.disk;
    b.remote_read += m.remote_read;
    b.overhead += m.overhead;
    b.max_task_duration = std::max(b.max_task_duration, m.duration());
    b.bytes_from_cache += m.bytes_from_cache;
    b.bytes_from_net += m.bytes_from_net;
    b.bytes_from_disk += m.bytes_from_disk;
    b.bytes_from_remote += m.bytes_from_remote;
    if (options_.detail_task_metrics) r.tasks.push_back(m);
  };
  ts->all_done = [this, stage_ptr] { on_stage_complete(*stage_ptr); };
  ts->task_failed = [this, stage_ptr](const TaskSpec& task,
                                      const TaskFailure& failure) {
    return on_task_failed(*stage_ptr, task, failure);
  };
  ts->on_abort = [this, stage_ptr](const std::string& reason) {
    abort_job(*stage_ptr->job, reason);
  };
  task_scheduler_.submit(std::move(ts));
}

void DagScheduler::on_stage_complete(StageRun& stage) {
  Job& job = *stage.job;
  if (job.done) return;
  if (stage.output.has_value()) {
    const ShuffleKey key = stage.output->key();
    Shuffle& sh = shuffles_[key];
    // An executor lost mid-stage can leave holes even though every task of
    // the (reduced) set finished: relaunch just the missing units.
    if (!shuffle_healthy(sh)) {
      ++stage.attempts;
      if (stage.attempts > options_.faults.max_stage_attempts) {
        abort_job(job, "map stage for shuffle " + std::to_string(key.child) +
                           "/" + std::to_string(key.dep_index) + " failed " +
                           std::to_string(stage.attempts) + " attempts");
        return;
      }
      ++stats_.stage_resubmissions;
      ++stage.breakdown.attempts;
      if (obs::Tracer::active(tracer_)) {
        obs::TraceEvent e;
        e.kind = obs::TraceKind::kStageResubmit;
        e.t0 = e.t1 = sim_->now();
        e.job = job.id;
        e.stage = stage.id;
        e.attempt = stage.attempts;
        e.flags |= obs::kFlagShuffleMap;
        tracer_->emit(e);
      }
      stage.launched = false;
      maybe_launch(stage);
      return;
    }
    sh.done = true;
    sh.building = false;
    // Spark limits *consecutive* failed attempts: success clears the
    // count so unrelated failures over a long-lived stage never add up
    // to an abort.
    stage.attempts = 0;
    shuffle_bytes_ += stage.boundary->total_bytes();
    for (StageRun* w : std::exchange(sh.waiters, {})) {
      --w->waiting_parents;
      maybe_launch(*w);
    }
    // Reduce stages parked on a FetchFailed for this shuffle resume.
    for (StageRun* w : std::exchange(sh.parked, {})) {
      task_scheduler_.unpark(w->job->id, w->id);
    }
  }
  // Past every relaunch path: the stage is truly done, drop its lineage
  // charges so the LRC policy stops protecting its inputs.
  release_lineage_refcounts(stage);
  if (obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kStageComplete;
    e.t0 = e.t1 = sim_->now();
    e.job = job.id;
    e.stage = stage.id;
    e.task_index = stage.breakdown.num_tasks;
    if (stage.output.has_value()) e.flags |= obs::kFlagShuffleMap;
    tracer_->emit(e);
  }
  --job.stages_remaining;
  if (job.stages_remaining == 0 && !job.done) finish_job(job);
}

// Copies the per-stage phase accumulators of every stage that ran at least
// one task into the result. job.stages is in stage-id order: build_stage
// mints the id and appends the stage before it recurses into parents, and
// rebuild_shuffle appends later stages, which get larger ids.
void DagScheduler::collect_stage_breakdowns(Job& job) {
  job.result.stages.clear();
  for (const auto& stage : job.stages) {
    if (stage->breakdown.num_tasks > 0) {
      job.result.stages.push_back(stage->breakdown);
    }
  }
}

void DagScheduler::finish_job(Job& job) {
  close_job(job, JobStatus::kCompleted, {});
  ++jobs_completed_;
  deliver_result(job);
  // Job boundaries are the advisor's other sweep point: a dataset whose
  // last consumer just finished starts its grace period now and is
  // reclaimed by a later submit/finish once the period elapses.
  if (advisor_) advisor_->sweep(sim_->now());
  drain_admission_queue();
}

void DagScheduler::abort_job(Job& job, const std::string& reason,
                             JobStatus status) {
  if (job.done) return;
  close_job(job, status, reason);
  ++stats_.jobs_aborted;
  STARK_LOG_INFO("job %d aborted: %s", job.id, reason.c_str());
  task_scheduler_.cancel_job(job.id);
  // The StageRuns die with the job below: drop any lineage charges their
  // completed-stage path never released (no-op for stages that did), and
  // purge them from the waiter lists of the shuffles they read. Map stages
  // this job was building become orphans: release the building guard and
  // re-home them below under a job that still waits on them.
  const auto mine = [&job](const StageRun* w) { return w->job == &job; };
  std::vector<ShuffleEdge> orphans;
  for (const auto& stage : job.stages) {
    release_lineage_refcounts(*stage);
    for (const ShuffleEdge& edge : stage->chain.shuffle_deps) {
      Shuffle& sh = shuffles_[edge.key()];
      std::erase_if(sh.waiters, mine);
      std::erase_if(sh.parked, mine);
    }
    if (!stage->output.has_value()) continue;
    Shuffle& sh = shuffles_[stage->output->key()];
    if (sh.done || !sh.building) continue;
    sh.building = false;
    orphans.push_back(*stage->output);
  }
  deliver_result(job);

  for (const ShuffleEdge& edge : orphans) {
    const Shuffle& sh = shuffles_[edge.key()];
    // Nobody needs it; a future job will rebuild on demand.
    if (sh.waiters.empty()) continue;
    rebuild_shuffle(edge, *sh.waiters.front()->job);
  }
  drain_admission_queue();
}

void DagScheduler::rebuild_shuffle(const ShuffleEdge& edge, Job& owner) {
  Shuffle& sh = shuffles_[edge.key()];
  if (sh.building) return;  // already in flight
  sh.building = true;
  ++stats_.stage_resubmissions;
  const std::size_t before = owner.stages.size();
  build_stage(owner, edge.map_side(), edge);
  if (obs::Tracer::active(tracer_)) {
    // The rebuilt map stage is a fresh StageRun: owner.stages[before].
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kStageResubmit;
    e.t0 = e.t1 = sim_->now();
    e.job = owner.id;
    e.stage = owner.stages[before]->id;
    e.flags |= obs::kFlagShuffleMap;
    tracer_->emit(e);
  }
  for (std::size_t i = before; i < owner.stages.size(); ++i) {
    maybe_launch(*owner.stages[i]);
  }
}

TaskFailureAction DagScheduler::on_task_failed(StageRun& stage,
                                               const TaskSpec& task,
                                               const TaskFailure& failure) {
  (void)task;
  if (failure.kind != TaskFailureKind::kFetchFailed) {
    // Plain errors and executor losses retry within the task set.
    return TaskFailureAction::kRetry;
  }
  ++stats_.fetch_failures;
  const ShuffleKey key = failure.shuffle;
  Shuffle& sh = shuffles_[key];
  if (shuffle_healthy(sh)) {
    // Stale epoch: the shuffle was rebuilt after this task launched with
    // the old output locations. Spark's DAGScheduler ignores such fetch
    // failures; the task simply reruns against the fresh locations.
    return TaskFailureAction::kRetry;
  }
  STARK_LOG_DEBUG("fetch failure: stage %d shuffle %d/%d source %d",
                  stage.id, key.child, key.dep_index, failure.fetch_source);
  // Invalidate everything the failing host served for this shuffle; the
  // relaunch skips units that survived elsewhere.
  if (failure.fetch_source != kInvalidId) {
    for (MapOutput& out : sh.outputs) {
      if (out.host == failure.fetch_source) out = {};
    }
  }
  sh.done = false;

  // First FetchFailed of this round for this reduce stage opens a new stage
  // attempt (spark.stage.maxConsecutiveAttempts).
  auto& parked = sh.parked;
  if (std::find(parked.begin(), parked.end(), &stage) == parked.end()) {
    parked.push_back(&stage);
    ++stage.attempts;
    ++stage.breakdown.attempts;
    if (stage.attempts > options_.faults.max_stage_attempts) {
      abort_job(*stage.job,
                "stage " + std::to_string(stage.id) + " exceeded " +
                    std::to_string(options_.faults.max_stage_attempts) +
                    " attempts after repeated fetch failures");
      return TaskFailureAction::kRetry;  // moot: the set is cancelled
    }
  }
  // The failed fetch was planned from this stage's chain, so the chain
  // holds the shuffle's producer edge.
  for (const ShuffleEdge& edge : stage.chain.shuffle_deps) {
    if (edge.key() != key) continue;
    rebuild_shuffle(edge, *stage.job);
    break;
  }
  return TaskFailureAction::kPark;
}

void DagScheduler::on_executor_lost(ServerId s, double detection_latency) {
  STARK_LOG_DEBUG("executor %d lost (detection latency %.3f)", s,
                  detection_latency);
  ++stats_.heartbeat_detections;
  stats_.detection_latency_sum += detection_latency;
  locality_->on_server_failure(s);
  // MapOutputTracker: every map output hosted there is gone; shuffles that
  // lose outputs are no longer complete and rebuild on demand.
  for (auto& [key, sh] : shuffles_) {
    for (MapOutput& out : sh.outputs) {
      if (out.host != s) continue;
      out = {};
      sh.done = false;
    }
  }
  task_scheduler_.handle_server_failure(s);
}

// --- silent-data-corruption faults ------------------------------------------

void DagScheduler::emit_corruption_event(obs::TraceKind kind, ServerId host,
                                         DatasetId dataset, int partition,
                                         Bytes bytes, bool shuffle) {
  if (!obs::Tracer::active(tracer_)) return;
  obs::TraceEvent e;
  e.kind = kind;
  e.t0 = e.t1 = sim_->now();
  e.server = host;
  e.dataset = dataset;
  e.partition = partition;
  e.bytes = bytes;
  if (shuffle) e.flags |= obs::kFlagShuffleMap;
  tracer_->emit(e);
}

void DagScheduler::note_corruption_detected(ServerId host, DatasetId dataset,
                                            int partition, Bytes bytes,
                                            bool shuffle) {
  ++stats_.corruptions_detected;
  STARK_LOG_DEBUG("corruption detected on %d: dataset %d partition %d", host,
                  dataset, partition);
  task_scheduler_.record_integrity_failure(host);
  emit_corruption_event(obs::TraceKind::kCorruptionDetected, host, dataset,
                        partition, bytes, shuffle);
}

bool DagScheduler::corrupt_block(MemoryTier tier, ServerId s,
                                 const BlockId& id) {
  if (!cluster_->corrupt_copy(tier, s, id)) return false;
  const auto copy = cluster_->find_copy(tier, s, id);
  ++stats_.corruptions_injected;
  emit_corruption_event(obs::TraceKind::kBlockCorrupt, copy->host, id.dataset,
                        id.partition, copy->bytes, /*shuffle=*/false);
  return true;
}

bool DagScheduler::corrupt_shuffle_output(const ShuffleKey& key, int unit) {
  const auto it = shuffles_.find(key);
  if (it == shuffles_.end() || unit < 0 ||
      static_cast<std::size_t>(unit) >= it->second.outputs.size()) {
    return false;
  }
  MapOutput& out = it->second.outputs[static_cast<std::size_t>(unit)];
  if (!output_host_healthy(out.host) || out.corrupt) return false;
  out.corrupt = true;
  ++stats_.corruptions_injected;
  emit_corruption_event(obs::TraceKind::kBlockCorrupt, out.host, key.child,
                        unit, /*bytes=*/0.0, /*shuffle=*/true);
  return true;
}

std::vector<DagScheduler::ShuffleOutputRef>
DagScheduler::live_shuffle_outputs() const {
  std::vector<ShuffleOutputRef> out;
  for (const auto& [key, sh] : shuffles_) {
    for (std::size_t i = 0; i < sh.outputs.size(); ++i) {
      const MapOutput& unit = sh.outputs[i];
      if (!output_host_healthy(unit.host) || unit.corrupt) continue;
      out.push_back({key, static_cast<int>(i), unit.host});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ShuffleOutputRef& a, const ShuffleOutputRef& b) {
              if (a.key.child != b.key.child) return a.key.child < b.key.child;
              if (a.key.dep_index != b.key.dep_index) {
                return a.key.dep_index < b.key.dep_index;
              }
              return a.unit < b.unit;
            });
  return out;
}

JobResult DagScheduler::run_job(DatasetPtr final, ActionType action) {
  const JobId id = submit(std::move(final), action);
  sim_->run_until([this, id] { return job_done(id); });
  if (!job_done(id)) {
    throw std::runtime_error("run_job: simulation drained before completion");
  }
  return results_.at(id);
}

bool DagScheduler::job_done(JobId id) const { return results_.contains(id); }

const JobResult& DagScheduler::result(JobId id) const {
  return results_.at(id);
}

// --- preferred locations ----------------------------------------------------

std::vector<ServerId> DagScheduler::preferred_servers(const StageRun& stage,
                                                      int unit_id, int lo,
                                                      int hi) {
  std::vector<ServerId> out;
  const DatasetPtr& boundary = stage.boundary;
  if (options_.use_locality_homes && !boundary->ns().empty() &&
      locality_->has(boundary->ns())) {
    // Paper §III-B/E: the DAGScheduler consults the LocalityManager for the
    // preferred executors of the collection partition, then runs delay
    // scheduling against those. The home set grows when hot units replicate
    // (see the task-completion hook), so this stays authoritative even for
    // replicated partitions. Using only homes — not arbitrary cache
    // locations — is what moves a split-off group to its newly assigned
    // executor (Fig 14's first-job rebuild).
    for (ServerId s : locality_->homes(boundary->ns(), unit_id)) {
      const Server& srv = cluster_->server(s);
      if (srv.alive() && srv.reachable()) out.push_back(s);
    }
    if (!out.empty()) return out;
  }
  // First narrow-reachable dataset with all of the unit's partitions cached
  // on a common server (Spark's getPreferredLocs walk).
  for (const auto& ds : stage.chain.datasets) {
    std::vector<ServerId> common;
    for (int p = lo; p < hi; ++p) {
      const auto& locs = cluster_->cache_locations({ds->id(), p});
      if (locs.empty()) {
        common.clear();
        break;
      }
      if (p == lo) {
        common = locs;
      } else {
        std::vector<ServerId> next;
        for (ServerId s : common) {
          if (std::find(locs.begin(), locs.end(), s) != locs.end()) {
            next.push_back(s);
          }
        }
        common = std::move(next);
      }
      if (common.empty()) break;
    }
    if (!common.empty()) {
      for (ServerId s : common) {
        const Server& srv = cluster_->server(s);
        if (std::find(out.begin(), out.end(), s) == out.end() &&
            srv.alive() && srv.reachable()) {
          out.push_back(s);
        }
      }
      break;
    }
  }
  // Hierarchy-aware placement (remote tier only, so the historical
  // scheduler stays byte-identical): with no RAM replica anywhere, a
  // server holding every partition of the boundary in its local spill
  // store still beats recompute — the spill copies are only readable
  // there. Remote-pool copies are location-independent and add no
  // preference. Scan order is server-id order: deterministic.
  if (out.empty() && cluster_->remote_memory_enabled() &&
      stage.boundary->storage_level() ==
          Dataset::StorageLevel::kMemoryAndDisk) {
    for (ServerId s = 0; s < cluster_->size(); ++s) {
      const Server& srv = cluster_->server(s);
      if (!srv.alive() || !srv.reachable()) continue;
      bool all = true;
      for (int p = lo; p < hi; ++p) {
        if (!cluster_->find_copy(MemoryTier::kDisk, s,
                                 {stage.boundary->id(), p})) {
          all = false;
          break;
        }
      }
      if (all) out.push_back(s);
    }
  }
  return out;
}

// --- task planning -----------------------------------------------------------

void DagScheduler::plan_chain(const DatasetPtr& ds, int partition,
                              ServerId server, DatasetId boundary_id,
                              TaskPlan& plan) {
  const Bytes bytes = ds->partition_bytes()[static_cast<std::size_t>(partition)];
  const BlockId bid{ds->id(), partition};
  const bool serialized =
      ds->storage_level() != Dataset::StorageLevel::kMemory;
  const auto emit_cache_probe = [&](bool hit, Bytes probe_bytes) {
    if (!obs::Tracer::active(tracer_)) return;
    obs::TraceEvent e;
    e.kind = hit ? obs::TraceKind::kBlockHit : obs::TraceKind::kBlockMiss;
    e.t0 = e.t1 = sim_->now();
    e.server = server;
    e.dataset = ds->id();
    e.partition = partition;
    e.bytes = probe_bytes;
    tracer_->emit(e);
  };
  // The read itself, charged to the tier the copy came from.
  const auto charge_read = [&plan](MemoryTier tier, Bytes stored) {
    switch (tier) {
      case MemoryTier::kRam:
        plan.bytes_cache += stored;
        break;
      case MemoryTier::kRemote:
        plan.bytes_remote += stored;
        ++plan.remote_reads;
        break;
      case MemoryTier::kDisk:
        plan.bytes_disk += stored;
        break;
    }
  };
  // Probe the hierarchy top-down: this executor's RAM, the disaggregated
  // remote pool (a one-sided read beats both disk and recompute), then —
  // MEMORY_AND_DISK only — this server's spill store. The first usable
  // copy is served; lower-tier copies fault back up into this executor's
  // cache when the task lands.
  for (const MemoryTier tier :
       {MemoryTier::kRam, MemoryTier::kRemote, MemoryTier::kDisk}) {
    if (tier == MemoryTier::kRemote && ds->cache_requested()) {
      // A miss only means something for datasets the program asked to
      // cache; uncached intermediates are expected to recompute.
      emit_cache_probe(false, bytes);
      ++cache_stats_.misses;
    }
    if (tier == MemoryTier::kDisk &&
        ds->storage_level() != Dataset::StorageLevel::kMemoryAndDisk) {
      break;
    }
    const auto copy = cluster_->find_copy(tier, server, bid);
    if (!copy) continue;
    // RAM charges the dataset-derived footprint; lower tiers (always
    // serialized) their stored copy.
    const Bytes stored = tier != MemoryTier::kRam ? copy->bytes
                         : serialized ? bytes * cost_.serialization_ratio
                                      : bytes;
    if (options_.faults.verify_reads) {
      // Verified read: re-checksum the stored copy before trusting it.
      plan.cpu += cost_.verify_seconds(stored);
      stats_.bytes_reverified += stored;
      if (copy->corrupt) {
        // Mismatch: drop the copy and keep falling down the hierarchy (then
        // lineage) — never serve poisoned bytes. Below RAM the read
        // happened before the checksum failed, so it is charged.
        if (tier != MemoryTier::kRam) charge_read(tier, stored);
        note_corruption_detected(copy->host, ds->id(), partition, stored,
                                 /*shuffle=*/false);
        pending_block_repair_.insert(bid);
        cluster_->drop_copy(tier, server, bid);
        continue;
      }
    } else if (copy->corrupt) {
      ++stats_.corrupt_reads_undetected;
    }
    if (tier == MemoryTier::kRam && !serialized) {
      plan.cpu += cost_.cpu_seconds(OpKind::kMemScan, bytes);
      plan.bytes_cache += bytes;
    } else {
      // Serialized copies (MEMORY_ONLY_SER / MEMORY_AND_DISK in RAM, every
      // lower-tier copy): smaller footprint, but every read deserializes.
      const double deser = cost_.cpu_seconds(OpKind::kSourceParse, stored);
      charge_read(tier, stored);
      plan.cpu += deser;
      plan.deserialize += deser;
    }
    switch (tier) {
      case MemoryTier::kRam:
        emit_cache_probe(true, bytes);
        ++cache_stats_.hits;
        cache_stats_.bytes_from_cache += bytes;
        // DAMON-style access sampling: served reads are the advisor's
        // recency/frequency evidence against auto-freeing this dataset.
        if (advisor_) advisor_->on_block_read(*ds, sim_->now());
        break;
      case MemoryTier::kRemote:
        ++cache_stats_.remote_hits;
        cache_stats_.bytes_from_remote += stored;
        break;
      case MemoryTier::kDisk:
        break;
    }
    cluster_->touch_copy(tier, server, bid);
    if (tier != MemoryTier::kRam) {
      fault_back(ds, partition, server, boundary_id, stored, tier, plan);
    } else if (cluster_->config().cache.pin_running_blocks) {
      // The block must survive until this task releases it; the
      // TaskScheduler pins at launch and unpins at resource release.
      plan.blocks_referenced.push_back(bid);
    }
    return;
  }
  if (is_checkpointed(ds->id())) {
    const Bytes ck = bytes * cost_.serialization_ratio;
    const double deser = cost_.cpu_seconds(OpKind::kSourceParse, ck);
    plan.bytes_disk += ck;
    plan.cpu += deser;  // deserialize
    plan.deserialize += deser;
  } else {
    if (ds->cache_requested()) {
      // A cache-requested partition rebuilt via lineage: the cost an
      // eviction policy is judged on (headline of the cache ablation).
      ++cache_stats_.recomputes;
      cache_stats_.bytes_recomputed += bytes;
    }
    if (ds->op() != Op::kSource) {
      // All-dataset accounting (the advisor's headline): every partition
      // rebuilt via lineage, cached or not. A source read is a load.
      ++cache_stats_.recomputes_all;
      cache_stats_.bytes_recomputed_all += bytes;
    }
    const auto add_fetch = [&](Bytes fetch) {
      // Reduce-side fetch: map outputs stream from remote disks over the
      // network. Bytes accumulate here; plan_task turns them into time
      // using the cluster-wide congestion factors.
      ++plan.fetch_waves;
      plan.bytes_net += fetch;
      if (options_.faults.verify_reads) {
        // spark.shuffle.checksum.enabled: every fetched unit is
        // re-checksummed on arrival.
        plan.cpu += cost_.verify_seconds(fetch);
        stats_.bytes_reverified += fetch;
      }
    };
    switch (ds->op()) {
      case Op::kSource: {
        const double deser = cost_.cpu_seconds(OpKind::kSourceParse, bytes);
        plan.bytes_disk += bytes;
        plan.cpu += deser;
        plan.deserialize += deser;
        break;
      }
      case Op::kMap:
      case Op::kFilter: {
        const DatasetPtr& parent = ds->deps()[0].parent;
        plan_chain(parent, partition, server, boundary_id, plan);
        plan.cpu += cost_.cpu_seconds(
            ds->op() == Op::kMap ? OpKind::kMap : OpKind::kFilter,
            parent->partition_bytes()[static_cast<std::size_t>(partition)]);
        break;
      }
      case Op::kPartitionBy:
      case Op::kReduceByKey: {
        const auto& dep = ds->deps()[0];
        if (!dep.wide) {
          plan_chain(dep.parent, partition, server, boundary_id, plan);
          if (ds->op() == Op::kReduceByKey) {
            plan.cpu += cost_.cpu_seconds(
                OpKind::kReduce,
                dep.parent
                    ->partition_bytes()[static_cast<std::size_t>(partition)]);
          }
        } else {
          const Bytes fetch =
              ds->shuffle_input_bytes(0)[static_cast<std::size_t>(partition)];
          add_fetch(fetch);
          plan.cpu += cost_.cpu_seconds(OpKind::kShuffleRead, fetch);
          if (ds->op() == Op::kReduceByKey) {
            plan.cpu += cost_.cpu_seconds(OpKind::kReduce, fetch);
          }
        }
        break;
      }
      case Op::kCoGroup:
      case Op::kJoin:
      case Op::kUnion: {
        if (ds->op() != Op::kUnion) {
          plan.cogroup_width = std::max(plan.cogroup_width,
                                        static_cast<int>(ds->deps().size()));
        }
        Bytes total_in = 0.0;
        for (std::size_t i = 0; i < ds->deps().size(); ++i) {
          const auto& dep = ds->deps()[i];
          if (!dep.wide) {
            plan_chain(dep.parent, partition, server, boundary_id, plan);
            total_in +=
                dep.parent
                    ->partition_bytes()[static_cast<std::size_t>(partition)];
          } else {
            const Bytes fetch =
                ds->shuffle_input_bytes(i)[static_cast<std::size_t>(partition)];
            add_fetch(fetch);
            plan.cpu += cost_.cpu_seconds(OpKind::kShuffleRead, fetch);
            total_in += fetch;
          }
        }
        const OpKind kind = ds->op() == Op::kCoGroup ? OpKind::kCoGroup
                            : ds->op() == Op::kJoin  ? OpKind::kJoin
                                                     : OpKind::kUnion;
        plan.cpu += cost_.cpu_seconds(kind, total_in);
        break;
      }
    }
  }
  if (ds->cache_requested() &&
      (options_.replicate_on_recompute || ds->id() == boundary_id)) {
    // A dataset's own materialization job always caches its output; whether
    // ancestors recomputed in passing become lasting replicas depends on
    // the engine's tracking model (see DagOptions::replicate_on_recompute).
    const Bytes footprint =
        serialized ? bytes * cost_.serialization_ratio : bytes;
    double recompute_cost = 0.0;
    if (cluster_->config().cache.policy == EvictionPolicyKind::kCostSize) {
      // Only the cost/size policy reads the estimate; skip the lineage
      // walk otherwise so the default planner path stays byte-identical.
      recompute_cost = recompute_delay_partition(
          *ds, static_cast<std::size_t>(partition));
    }
    plan.blocks_to_cache.push_back(
        {bid, footprint,
         ds->storage_level() == Dataset::StorageLevel::kMemoryAndDisk,
         recompute_cost});
  }
}

void DagScheduler::fault_back(const DatasetPtr& ds, int partition,
                              ServerId server, DatasetId boundary_id,
                              Bytes stored, MemoryTier found_in,
                              TaskPlan& plan) {
  // Promotion is only meaningful with a hierarchy to climb; gating on the
  // tier keeps the two-tier engine's disk reads byte-identical.
  if (!cluster_->remote_memory_enabled()) return;
  if (!ds->cache_requested() ||
      !(options_.replicate_on_recompute || ds->id() == boundary_id)) {
    return;
  }
  const BlockId bid{ds->id(), partition};
  double recompute_cost = 0.0;
  if (cluster_->config().cache.policy == EvictionPolicyKind::kCostSize) {
    recompute_cost =
        recompute_delay_partition(*ds, static_cast<std::size_t>(partition));
  }
  // The task-completion hook inserts this into the executor's RAM store;
  // insert_block then supersedes (erases) the lower-tier copy, so the
  // block has *moved* up the hierarchy rather than multiplied.
  plan.blocks_to_cache.push_back(
      {bid, stored,
       ds->storage_level() == Dataset::StorageLevel::kMemoryAndDisk,
       recompute_cost});
  ++cache_stats_.fault_backs;
  if (obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kBlockFaultBack;
    e.code = static_cast<std::int16_t>(found_in);
    e.t0 = e.t1 = sim_->now();
    e.server = server;
    e.dataset = ds->id();
    e.partition = partition;
    e.bytes = stored;
    tracer_->emit(e);
  }
}

TaskPlan DagScheduler::plan_task(const StageRun& stage, const TaskSpec& task,
                                 ServerId server) {
  // Shuffle fetch feasibility: if any map output this task must read sits
  // on a dead/partitioned host (or is gone entirely), the task cannot
  // complete — it burns its connection retries and raises FetchFailed.
  for (const auto& edge : stage.chain.shuffle_deps) {
    const ShuffleKey key = edge.key();
    Shuffle& sh = shuffles_.at(key);
    for (const MapOutput& out : sh.outputs) {
      if (output_host_healthy(out.host)) continue;
      TaskPlan failed;
      failed.fetch_failure = TaskPlan::FetchFailure{key, out.host};
      return failed;
    }
    if (options_.faults.verify_reads) {
      // Verified fetch: a checksum mismatch surfaces as FetchFailed, the
      // same path a lost host takes (corrupt-fetch-as-FetchFailed). Every
      // corrupt unit of the shuffle is invalidated at once — a reduce task
      // fetches them all anyway — so a single resubmission round
      // regenerates them instead of burning one stage attempt per unit.
      ServerId first_bad = kInvalidId;
      for (std::size_t i = 0; i < sh.outputs.size(); ++i) {
        MapOutput& out = sh.outputs[i];
        if (!out.corrupt) continue;
        note_corruption_detected(out.host, key.child, static_cast<int>(i),
                                 /*bytes=*/0.0, /*shuffle=*/true);
        sh.repair.insert(static_cast<int>(i));
        if (first_bad == kInvalidId) first_bad = out.host;
        out = {};
      }
      if (first_bad != kInvalidId) {
        // The shuffle is no longer complete; on_task_failed's
        // shuffle_healthy check must see that (stale-epoch filtering
        // would otherwise swallow this failure — the host is alive).
        sh.done = false;
        TaskPlan failed;
        failed.fetch_failure = TaskPlan::FetchFailure{key, first_bad};
        return failed;
      }
    } else {
      for (const MapOutput& out : sh.outputs) {
        if (out.corrupt) ++stats_.corrupt_reads_undetected;
      }
    }
  }
  TaskPlan plan;
  for (int p = task.lo; p < task.hi; ++p) {
    plan_chain(stage.boundary, p, server, stage.boundary->id(), plan);
    if (stage.output.has_value()) {
      // Shuffle-map side: bucket the partition by the child's partitioner
      // and commit map outputs to persistent storage.
      const Bytes out =
          stage.boundary->partition_bytes()[static_cast<std::size_t>(p)];
      plan.cpu += cost_.cpu_seconds(OpKind::kShuffleWrite, out);
      plan.bytes_written += out;
    }
  }
  // Gray failure: a degraded server stretches the simulated time each
  // resource contributes (slow disk, saturated NIC, throttled CPU).
  const ServerDegradation& deg = cluster_->server(server).degradation();
  if (deg.degraded()) {
    plan.cpu *= deg.cpu;
    plan.deserialize *= deg.cpu;  // keeps the share of cpu consistent
  }
  // I/O times under contention: per-flow bandwidth shrinks once concurrent
  // flows outnumber NICs/spindles (average flows-per-server model).
  const double servers =
      std::max(1.0, static_cast<double>(cluster_->alive_count()));
  const double net_factor = std::max(
      1.0, (task_scheduler_.active_net_flows() + 1.0) / servers);
  const double disk_factor = std::max(
      1.0, (task_scheduler_.active_disk_flows() + 1.0) / servers);
  plan.shuffle_read =
      (plan.fetch_waves * cost_.net_latency +
       plan.bytes_net /
           (std::min(cost_.net_bw, cost_.disk_read_bw) / net_factor)) *
      deg.net;
  plan.disk = (plan.bytes_disk / (cost_.disk_read_bw / disk_factor) +
               plan.bytes_written / (cost_.disk_write_bw / disk_factor)) *
              deg.disk;
  // Remote-memory pool reads: one-sided fetches over the disaggregated
  // fabric — no disk congestion factor, but the executor's own NIC is an
  // endpoint, so its net degradation applies. Exactly 0.0 (and therefore
  // byte-identical) when the tier is off: no probe ever fills these fields.
  plan.remote = (plan.remote_reads * cost_.remote_read_latency +
                 plan.bytes_remote / cost_.remote_read_bw) *
                deg.net;
  if (slowness_) {
    // Fail-slow domain: record the executor-side stretch ratios the
    // completion path will feed the scorecards, then re-price the fetch
    // phase source-host-aware — a slow map-output host drags the slice it
    // serves — and hedge the lagging slice when it blows the adaptive
    // deadline. Gated so the default planner path stays byte-identical.
    plan.slowness.emplace();
    plan.slowness->cpu_ratio = static_cast<float>(deg.cpu);
    plan.slowness->disk_ratio = static_cast<float>(deg.disk);
    if (plan.bytes_net > 0.0) {
      // The executor's own NIC is an endpoint of every fetch it performs.
      plan.slowness->source_net.emplace_back(server,
                                             static_cast<float>(deg.net));
    }
    apply_source_slowness(stage, task, net_factor, plan);
    plan.slowness->fetch_seconds = plan.shuffle_read;
  }
  plan.working_set =
      cost_.working_set_expansion *
      (plan.bytes_cache + plan.bytes_net + plan.bytes_disk +
       plan.bytes_remote) *
      std::min(cost_.cogroup_ws_factor_cap,
               1.0 + cost_.cogroup_ws_per_input *
                         std::max(0, plan.cogroup_width - 1));
  plan.gc = plan.cpu *
            cost_.gc_factor(
                cluster_->server(server).heap_utilization(plan.working_set));
  return plan;
}

DagScheduler::HedgeBudget& DagScheduler::hedge_budget(TenantId tenant) {
  const auto idx = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
  if (hedge_budget_.size() <= idx) hedge_budget_.resize(idx + 1);
  return hedge_budget_[idx];
}

void DagScheduler::apply_source_slowness(const StageRun& stage,
                                         const TaskSpec& task,
                                         double net_factor, TaskPlan& plan) {
  if (plan.bytes_net <= 0.0) return;
  HedgeBudget& hb = hedge_budget(stage.job->tenant);
  // Every fetched byte widens the tenant's hedge budget, hedged or not:
  // the cap is a fraction of *total* fetch traffic, not of hedged jobs'.
  hb.fetched += plan.bytes_net;
  // Distinct registered map-output hosts across this task's shuffle deps.
  // The plan already failed fast if any host were dead, so these are live.
  auto& hosts = hedge_hosts_scratch_;
  hosts.clear();
  for (const auto& edge : stage.chain.shuffle_deps) {
    for (const MapOutput& out : shuffles_.at(edge.key()).outputs) {
      if (out.host == kInvalidId) continue;
      if (std::find(hosts.begin(), hosts.end(), out.host) == hosts.end()) {
        hosts.push_back(out.host);
      }
    }
  }
  if (hosts.empty()) return;
  // Per-slice timing is observable by the executor's fetch client, so
  // every source host yields one net observation at completion — healthy
  // hosts report ratio 1.0, which is the recovery evidence that lets a
  // Degraded band decay once the episode ends.
  double slow_factor = 1.0;
  ServerId slow_host = kInvalidId;
  for (const ServerId h : hosts) {
    const double f = cluster_->server(h).degradation().net;
    plan.slowness->source_net.emplace_back(h, static_cast<float>(f));
    if (f > slow_factor) {
      slow_factor = f;
      slow_host = h;
    }
  }
  if (slow_host == kInvalidId) return;  // every source healthy
  // The slowest host's slice is limited by *its* NIC: the fetch phase ends
  // when that last slice lands, stretching the base time by the slice's
  // extra transfer seconds.
  const double eff_bw =
      std::min(cost_.net_bw, cost_.disk_read_bw) / net_factor;
  const Bytes slice = plan.bytes_net / static_cast<double>(hosts.size());
  const double extra = slice * (slow_factor - 1.0) / eff_bw;
  const double projected = plan.shuffle_read + extra;
  const SlownessOptions& so = options_.faults.slowness;
  const double deadline = slowness_->fetch_deadline();
  bool hedged = false;
  bool hedge_won = false;
  if (so.hedging && deadline > 0.0 && projected > deadline) {
    // The driver notices at the adaptive deadline that the fetch has not
    // completed and duplicates the lagging slice to an alternate source
    // (another replica or the lineage recompute's fresh output) — first
    // responder wins, loser cancelled — if the tenant's budget allows.
    SlownessStats& st = slowness_->stats();
    const Bytes budget = so.hedge_budget_fraction * hb.fetched;
    if (hb.hedged + slice <= budget) {
      hedged = true;
      hb.hedged += slice;
      ++st.hedges_issued;
      st.hedge_bytes_issued += slice;
      // The duplicate is real traffic regardless of who wins.
      plan.bytes_net += slice;
      const double alt_done = std::max(
          plan.shuffle_read, deadline + cost_.net_latency + slice / eff_bw);
      if (alt_done < projected) {
        hedge_won = true;
        ++st.hedges_won;
        st.hedge_seconds_saved += projected - alt_done;
        st.hedge_bytes_wasted += slice;  // the cancelled slow fetch
        plan.shuffle_read = alt_done;
      } else {
        ++st.hedges_lost;
        st.hedge_bytes_wasted += slice;  // the cancelled hedge
        plan.shuffle_read = projected;
      }
    } else {
      ++st.hedges_budget_denied;
      plan.shuffle_read = projected;
    }
  } else {
    plan.shuffle_read = projected;
  }
  if (hedged && obs::Tracer::active(tracer_)) {
    obs::TraceEvent e;
    e.kind = obs::TraceKind::kHedgeIssued;
    e.t0 = e.t1 = sim_->now();
    e.job = task.job;
    e.stage = task.stage;
    e.tenant = stage.job->tenant;
    e.task_index = task.index;
    e.unit = task.unit_id;
    e.server = slow_host;
    e.bytes = slice;
    tracer_->emit(e);
    e.kind = obs::TraceKind::kHedgeResolved;
    e.code = hedge_won ? 1 : 0;
    tracer_->emit(e);
  }
}

// --- checkpointing & recovery -----------------------------------------------

void DagScheduler::checkpoint_now(const DatasetPtr& ds) {
  if (ds == nullptr) throw std::invalid_argument("checkpoint_now: null dataset");
  if (is_checkpointed(ds->id())) return;
  const Bytes bytes = checkpoint_cost(*ds);
  checkpointed_.emplace(ds->id(), bytes);
  checkpoint_bytes_ += bytes;
}

bool DagScheduler::is_checkpointed(DatasetId id) const noexcept {
  return checkpointed_.contains(id);
}

Bytes DagScheduler::checkpoint_cost(const Dataset& ds) const {
  return ds.total_bytes() * cost_.serialization_ratio;
}

double DagScheduler::recompute_delay(const Dataset& ds) const {
  // Max across partitions of the transform-only cost, inputs available.
  double worst = 0.0;
  const auto& bytes = ds.partition_bytes();
  for (std::size_t p = 0; p < bytes.size(); ++p) {
    worst = std::max(worst, recompute_delay_partition(ds, p));
  }
  return worst;
}

double DagScheduler::recompute_delay_partition(const Dataset& ds,
                                               std::size_t p) const {
  const auto& bytes = ds.partition_bytes();
  double d = 0.0;
  switch (ds.op()) {
    case Op::kSource:
      d = bytes[p] / cost_.disk_read_bw +
          cost_.cpu_seconds(OpKind::kSourceParse, bytes[p]);
      break;
    case Op::kMap:
    case Op::kFilter: {
      const Bytes in = ds.deps()[0].parent->partition_bytes()[p];
      d = cost_.cpu_seconds(
          ds.op() == Op::kMap ? OpKind::kMap : OpKind::kFilter, in);
      break;
    }
    case Op::kPartitionBy:
    case Op::kReduceByKey: {
      const auto& dep = ds.deps()[0];
      const Bytes in = dep.wide ? ds.shuffle_input_bytes(0)[p]
                                : dep.parent->partition_bytes()[p];
      if (dep.wide) {
        d += cost_.net_latency + in / std::min(cost_.net_bw, cost_.disk_read_bw);
        d += cost_.cpu_seconds(OpKind::kShuffleRead, in);
      }
      if (ds.op() == Op::kReduceByKey) {
        d += cost_.cpu_seconds(OpKind::kReduce, in);
      }
      break;
    }
    case Op::kCoGroup:
    case Op::kJoin:
    case Op::kUnion: {
      Bytes total_in = 0.0;
      for (std::size_t i = 0; i < ds.deps().size(); ++i) {
        const auto& dep = ds.deps()[i];
        const Bytes in = dep.wide ? ds.shuffle_input_bytes(i)[p]
                                  : dep.parent->partition_bytes()[p];
        if (dep.wide) {
          d += cost_.net_latency +
               in / std::min(cost_.net_bw, cost_.disk_read_bw);
          d += cost_.cpu_seconds(OpKind::kShuffleRead, in);
        }
        total_in += in;
      }
      const OpKind kind = ds.op() == Op::kCoGroup ? OpKind::kCoGroup
                          : ds.op() == Op::kJoin  ? OpKind::kJoin
                                                  : OpKind::kUnion;
      d += cost_.cpu_seconds(kind, total_in);
      break;
    }
  }
  return d;
}

void DagScheduler::release_lineage_refcounts(StageRun& stage) {
  for (const DatasetId id : stage.lineage_charged) {
    cluster_->bump_lineage_refcount(id, -1);
  }
  stage.lineage_charged.clear();
  if (advisor_) {
    for (const DatasetId id : stage.advisor_charged) {
      advisor_->on_stage_release(id, sim_->now());
    }
    stage.advisor_charged.clear();
  }
}

void DagScheduler::install_insert_filter() {
  if (insert_filter_installed_) return;
  insert_filter_installed_ = true;
  task_scheduler_.set_block_insert_filter(
      [this](const BlockId& id) { return !retired_.contains(id.dataset); });
}

Bytes DagScheduler::retire_dataset(const DatasetPtr& ds) {
  if (ds == nullptr) return 0.0;
  ds->uncache();
  Bytes dropped = 0.0;
  for (int p = 0; p < ds->num_partitions(); ++p) {
    dropped = cluster_->drop_everywhere({ds->id(), p}, dropped);
  }
  veto_reinsertion(ds);
  install_insert_filter();
  return dropped;
}

void DagScheduler::veto_reinsertion(const DatasetPtr& ds) {
  if (retired_.size() >= retired_prune_at_) {
    std::erase_if(retired_,
                  [](const auto& kv) { return kv.second.expired(); });
    retired_prune_at_ = std::max(kMinRetiredPruneAt, 2 * retired_.size());
  }
  retired_.insert_or_assign(ds->id(), ds);
}

double DagScheduler::recovery_chain_delay(const DatasetPtr& ds,
                                          int partition) const {
  // Recompute chain for one partition assuming no cached copies survive:
  // stops at checkpoints and shuffles, like plan_chain without a cache.
  if (is_checkpointed(ds->id())) {
    const Bytes ck = ds->partition_bytes()[static_cast<std::size_t>(partition)] *
                     cost_.serialization_ratio;
    return ck / cost_.disk_read_bw +
           cost_.cpu_seconds(OpKind::kSourceParse, ck);
  }
  double d = recompute_delay(*ds);
  double parent_worst = 0.0;
  for (const auto& dep : ds->deps()) {
    if (dep.wide) continue;  // anchored at persisted map outputs
    parent_worst =
        std::max(parent_worst, recovery_chain_delay(dep.parent, partition));
  }
  return d + parent_worst;
}

double DagScheduler::estimate_recovery_delay(const DatasetPtr& ds) const {
  double worst = 0.0;
  for (int p = 0; p < ds->num_partitions(); ++p) {
    worst = std::max(worst, recovery_chain_delay(ds, p));
  }
  return worst;
}

void DagScheduler::handle_server_failure(ServerId s) {
  cluster_->kill_server(s);
  on_executor_lost(s, 0.0);
}

}  // namespace stark
