#include "api/chaos.h"

#include <stdexcept>
#include <string>
#include <vector>

namespace stark {

namespace {

// Rejects configurations that could never inject anything meaningful (or
// would silently suppress every event) before any process is scheduled.
void validate(const ChaosInjector::Config& c, const Context& ctx) {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("ChaosInjector: " + what);
  };
  if (c.min_alive < 0) bad("min_alive must be >= 0");
  if (c.min_alive > ctx.options().cluster.num_servers) {
    bad("min_alive (" + std::to_string(c.min_alive) +
        ") exceeds the cluster size (" +
        std::to_string(ctx.options().cluster.num_servers) +
        "); every kill and partition would be skipped");
  }
  if (c.failures_per_hour < 0.0) bad("failures_per_hour must be >= 0");
  if (c.slow_nodes_per_hour < 0.0) bad("slow_nodes_per_hour must be >= 0");
  if (c.partitions_per_hour < 0.0) bad("partitions_per_hour must be >= 0");
  if (c.mean_repair_seconds <= 0.0) bad("mean_repair_seconds must be > 0");
  if (c.mean_slow_seconds <= 0.0) bad("mean_slow_seconds must be > 0");
  if (c.mean_partition_seconds <= 0.0) {
    bad("mean_partition_seconds must be > 0");
  }
  if (c.flaky_task_probability < 0.0 || c.flaky_task_probability > 1.0) {
    bad("flaky_task_probability must be in [0, 1]");
  }
  if (c.slow_cpu_factor < 1.0 || c.slow_disk_factor < 1.0 ||
      c.slow_net_factor < 1.0) {
    bad("slow factors must be >= 1 (a factor below 1 would speed nodes up)");
  }
  if (c.disk_ramps_per_hour < 0.0) bad("disk_ramps_per_hour must be >= 0");
  if (c.mean_ramp_seconds <= 0.0) bad("mean_ramp_seconds must be > 0");
  if (c.ramp_max_disk_factor < 1.0) {
    bad("ramp_max_disk_factor must be >= 1");
  }
  if (c.ramp_steps < 1) {
    bad("ramp_steps must be >= 1 (got " + std::to_string(c.ramp_steps) + ")");
  }
  if (c.nic_brownouts_per_hour < 0.0) {
    bad("nic_brownouts_per_hour must be >= 0");
  }
  if (c.mean_brownout_seconds <= 0.0) bad("mean_brownout_seconds must be > 0");
  if (c.brownout_net_factor < 1.0) bad("brownout_net_factor must be >= 1");
  if (c.stalls_per_hour < 0.0) bad("stalls_per_hour must be >= 0");
  if (c.mean_stall_seconds <= 0.0) bad("mean_stall_seconds must be > 0");
  if (c.stall_factor < 1.0) bad("stall_factor must be >= 1");
  if (c.corruptions_per_hour < 0.0) bad("corruptions_per_hour must be >= 0");
  if (c.corruptions_per_hour > 0.0 && !c.corrupt_cache && !c.corrupt_spill &&
      !c.corrupt_shuffle) {
    bad("corruptions_per_hour > 0 with every corruption class disabled; "
        "every arrival would be skipped");
  }
  if (c.overload_bursts_per_hour < 0.0) {
    bad("overload_bursts_per_hour must be >= 0");
  }
  if (c.overload_bursts_per_hour > 0.0) {
    if (c.overload_job_factory == nullptr) {
      bad("overload_bursts_per_hour > 0 requires a non-null "
          "overload_job_factory; every burst would submit nothing");
    }
    if (c.overload_burst_jobs < 1) {
      bad("overload_burst_jobs must be >= 1 (got " +
          std::to_string(c.overload_burst_jobs) + ")");
    }
  }
}

}  // namespace

ChaosInjector::ChaosInjector(Context& ctx, Config config)
    : ctx_(&ctx),
      config_(config),
      kill_rng_(config.seed),
      slow_rng_(splitmix64(config.seed ^ 0x534c4f57ULL)),
      ramp_rng_(splitmix64(config.seed ^ 0x52414d50ULL)),
      brownout_rng_(splitmix64(config.seed ^ 0x4e494342ULL)),
      stall_rng_(splitmix64(config.seed ^ 0x5354414cULL)),
      partition_rng_(splitmix64(config.seed ^ 0x50415254ULL)),
      corrupt_rng_(splitmix64(config.seed ^ 0x434f5252ULL)),
      overload_rng_(splitmix64(config.seed ^ 0x4f564c44ULL)) {
  validate(config_, ctx);
}

void ChaosInjector::start(SimTime t0, SimTime t1) {
  if (t1 <= t0) return;  // empty or inverted window: nothing to schedule
  if (active_ && t0 < active_until_) {
    // Overlapping windows would add a second independent set of Poisson
    // chains, silently doubling the effective rates where they overlap.
    throw std::logic_error(
        "ChaosInjector::start: window [" + std::to_string(t0) + ", " +
        std::to_string(t1) + ") overlaps the active window ending at " +
        std::to_string(active_until_) + "; call stop() first or start at/"
        "after the previous end");
  }
  active_ = true;
  active_until_ = t1;
  schedule_next(kill_rng_, config_.failures_per_hour, t0, t1,
                [this] { inject_kill(); });
  schedule_next(slow_rng_, config_.slow_nodes_per_hour, t0, t1,
                [this] { inject_slow(); });
  schedule_next(ramp_rng_, config_.disk_ramps_per_hour, t0, t1,
                [this] { inject_disk_ramp(); });
  schedule_next(brownout_rng_, config_.nic_brownouts_per_hour, t0, t1,
                [this] { inject_brownout(); });
  schedule_next(stall_rng_, config_.stalls_per_hour, t0, t1,
                [this] { inject_stall(); });
  schedule_next(partition_rng_, config_.partitions_per_hour, t0, t1,
                [this] { inject_partition(); });
  schedule_next(corrupt_rng_, config_.corruptions_per_hour, t0, t1,
                [this] { inject_corruption(); });
  schedule_next(overload_rng_, config_.overload_bursts_per_hour, t0, t1,
                [this] { inject_overload(); });
  if (config_.flaky_task_probability > 0.0) {
    // Flakiness is a window, not a process: tasks launched in [t0, t1)
    // crash with the configured probability. Boundaries from a stopped
    // window must not clobber a later one, hence the epoch guard.
    const int epoch = epoch_;
    ctx_->sim().at(t0, [this, epoch] {
      if (epoch != epoch_) return;
      ctx_->dag().tasks().set_flaky_task_probability(
          config_.flaky_task_probability);
    });
    ctx_->sim().at(t1, [this, epoch] {
      if (epoch != epoch_) return;
      ctx_->dag().tasks().set_flaky_task_probability(0.0);
    });
  }
}

void ChaosInjector::stop() {
  ++epoch_;  // orphans every scheduled chain link and window boundary
  active_ = false;
  if (config_.flaky_task_probability > 0.0) {
    ctx_->dag().tasks().set_flaky_task_probability(0.0);
  }
  // Fail-slow degradations don't get to outlive their window: their
  // recovery events just got orphaned by the epoch bump, so clear them
  // here (same incarnation only — a restarted server starts clean anyway).
  for (const auto& [victim, gen] : failslow_active_) {
    Server& s = ctx_->cluster().server(victim);
    if (s.alive() && s.generation() == gen) s.clear_degradation();
  }
  failslow_active_.clear();
}

void ChaosInjector::schedule_next(Rng& rng, double per_hour, SimTime at,
                                  SimTime end,
                                  const std::function<void()>& fire) {
  const double rate = per_hour / 3600.0;
  if (rate <= 0.0) return;
  const SimTime next = at + rng.exponential(rate);
  if (next >= end) return;
  const int epoch = epoch_;
  ctx_->sim().at(next, [this, &rng, per_hour, next, end, fire, epoch] {
    if (epoch != epoch_) return;  // stop() halted this chain
    fire();
    schedule_next(rng, per_hour, next, end, fire);
  });
}

int ChaosInjector::usable_servers() const {
  return static_cast<int>(ctx_->cluster().reachable_servers().size());
}

void ChaosInjector::inject_kill() {
  // Decide against the usable count at this instant: repairs that landed
  // since the last injection raise it, concurrent partitions lower it.
  const auto usable = ctx_->cluster().reachable_servers();
  if (static_cast<int>(usable.size()) <= config_.min_alive) return;
  const ServerId victim = usable[kill_rng_.next_below(usable.size())];
  if (!ctx_->kill_server(victim)) return;
  ++kills_;
  const SimTime repair = kill_rng_.exponential(1.0 / config_.mean_repair_seconds);
  ctx_->sim().after(repair, [this, victim] {
    if (ctx_->restart_server(victim)) ++restarts_;
  });
}

void ChaosInjector::inject_slow() {
  const auto usable = ctx_->cluster().reachable_servers();
  std::vector<ServerId> healthy;
  for (ServerId s : usable) {
    if (!ctx_->cluster().server(s).degradation().degraded()) {
      healthy.push_back(s);
    }
  }
  if (healthy.empty()) return;
  const ServerId victim = healthy[slow_rng_.next_below(healthy.size())];
  Server& srv = ctx_->cluster().server(victim);
  srv.set_degradation({config_.slow_cpu_factor, config_.slow_disk_factor,
                       config_.slow_net_factor});
  ++slow_episodes_;
  const int gen = srv.generation();
  const SimTime dur = slow_rng_.exponential(1.0 / config_.mean_slow_seconds);
  ctx_->sim().after(dur, [this, victim, gen] {
    Server& s = ctx_->cluster().server(victim);
    // A restart in between already reset the degradation of the new
    // incarnation; don't touch it.
    if (s.alive() && s.generation() == gen) s.clear_degradation();
  });
}

ServerId ChaosInjector::pick_undegraded(Rng& rng) {
  const auto usable = ctx_->cluster().reachable_servers();
  std::vector<ServerId> healthy;
  for (ServerId s : usable) {
    if (!ctx_->cluster().server(s).degradation().degraded()) {
      healthy.push_back(s);
    }
  }
  if (healthy.empty()) return kInvalidId;
  return healthy[rng.next_below(healthy.size())];
}

void ChaosInjector::track_failslow(ServerId victim, int gen) {
  failslow_active_.emplace_back(victim, gen);
}

void ChaosInjector::recover_failslow(ServerId victim, int gen, int epoch) {
  if (epoch != epoch_) return;  // stop() already cleared and untracked it
  Server& s = ctx_->cluster().server(victim);
  if (s.alive() && s.generation() == gen) s.clear_degradation();
  for (auto it = failslow_active_.begin(); it != failslow_active_.end(); ++it) {
    if (it->first == victim && it->second == gen) {
      failslow_active_.erase(it);
      break;
    }
  }
}

void ChaosInjector::inject_disk_ramp() {
  const ServerId victim = pick_undegraded(ramp_rng_);
  if (victim == kInvalidId) return;
  Server& srv = ctx_->cluster().server(victim);
  const int gen = srv.generation();
  const int epoch = epoch_;
  const SimTime dur = ramp_rng_.exponential(1.0 / config_.mean_ramp_seconds);
  const int steps = config_.ramp_steps;
  const double gain = (config_.ramp_max_disk_factor - 1.0) / steps;
  // First increment lands now (so the victim reads as degraded to the other
  // pickers immediately); the spindle then worsens step by step until the
  // episode ends — the profile EWMA detectors are slowest to catch.
  srv.set_degradation({1.0, 1.0 + gain, 1.0});
  ++disk_ramps_;
  track_failslow(victim, gen);
  for (int i = 2; i <= steps; ++i) {
    const double factor = 1.0 + gain * i;
    ctx_->sim().after(dur * (i - 1) / steps, [this, victim, gen, epoch,
                                              factor] {
      if (epoch != epoch_) return;  // stop() cancelled the remaining ramp
      Server& s = ctx_->cluster().server(victim);
      if (s.alive() && s.generation() == gen) {
        s.set_degradation({1.0, factor, 1.0});
      }
    });
  }
  ctx_->sim().after(dur, [this, victim, gen, epoch] {
    recover_failslow(victim, gen, epoch);
  });
}

void ChaosInjector::inject_brownout() {
  const ServerId victim = pick_undegraded(brownout_rng_);
  if (victim == kInvalidId) return;
  Server& srv = ctx_->cluster().server(victim);
  srv.set_degradation({1.0, 1.0, config_.brownout_net_factor});
  ++brownouts_;
  const int gen = srv.generation();
  const int epoch = epoch_;
  track_failslow(victim, gen);
  const SimTime dur =
      brownout_rng_.exponential(1.0 / config_.mean_brownout_seconds);
  ctx_->sim().after(dur, [this, victim, gen, epoch] {
    recover_failslow(victim, gen, epoch);
  });
}

void ChaosInjector::inject_stall() {
  const ServerId victim = pick_undegraded(stall_rng_);
  if (victim == kInvalidId) return;
  Server& srv = ctx_->cluster().server(victim);
  srv.set_degradation(
      {config_.stall_factor, config_.stall_factor, config_.stall_factor});
  ++stalls_;
  const int gen = srv.generation();
  const int epoch = epoch_;
  track_failslow(victim, gen);
  const SimTime dur = stall_rng_.exponential(1.0 / config_.mean_stall_seconds);
  ctx_->sim().after(dur, [this, victim, gen, epoch] {
    recover_failslow(victim, gen, epoch);
  });
}

void ChaosInjector::inject_corruption() {
  // Enumerate every eligible stored copy in a deterministic order (server
  // ascending; MRU order for cache, sorted ids for spill, sorted refs for
  // shuffle), then corrupt one uniformly. Nothing eligible: the arrival is
  // skipped without consuming a draw.
  struct Target {
    bool shuffle = false;
    MemoryTier tier = MemoryTier::kRam;  // block targets only
    ServerId server = kInvalidId;
    BlockId block;
    DagScheduler::ShuffleOutputRef out;
  };
  std::vector<Target> targets;
  Cluster& cluster = ctx_->cluster();
  for (ServerId s = 0; s < cluster.size(); ++s) {
    const Server& srv = cluster.server(s);
    if (!srv.alive()) continue;
    if (config_.corrupt_cache) {
      for (const auto& block : srv.storage().records()) {
        if (!block.corrupted) {
          targets.push_back({false, MemoryTier::kRam, s, block.id, {}});
        }
      }
    }
    if (config_.corrupt_spill) {
      for (const BlockId& id : cluster.spilled_blocks(s)) {
        if (!cluster.find_copy(MemoryTier::kDisk, s, id)->corrupt) {
          targets.push_back({false, MemoryTier::kDisk, s, id, {}});
        }
      }
    }
  }
  if (config_.corrupt_shuffle) {
    for (const auto& ref : ctx_->dag().live_shuffle_outputs()) {
      targets.push_back({true, MemoryTier::kRam, ref.host, {}, ref});
    }
  }
  if (targets.empty()) return;
  const Target& t = targets[corrupt_rng_.next_below(targets.size())];
  const bool ok = t.shuffle
                      ? ctx_->corrupt_shuffle_output(t.out.key, t.out.unit)
                      : ctx_->corrupt_block(t.tier, t.server, t.block);
  if (ok) ++corruptions_;
}

void ChaosInjector::inject_overload() {
  // An open-loop burst: the whole batch hits the driver at one instant
  // with no think time. With admission control off this piles work onto
  // the scheduler unchecked; with it on, the surplus queues, sheds or is
  // rejected per ContextOptions::overload.
  for (int i = 0; i < config_.overload_burst_jobs; ++i) {
    DatasetPtr ds = config_.overload_job_factory();
    if (ds == nullptr) continue;  // factory declined this one job
    ctx_->dag().submit(ds, ActionType::kCount,
                       SubmitOptions{.tenant = "chaos-overload"});
  }
  ++overloads_;
}

void ChaosInjector::inject_partition() {
  Cluster& cluster = ctx_->cluster();
  const int rack = static_cast<int>(
      partition_rng_.next_below(static_cast<std::uint64_t>(cluster.num_racks())));
  std::vector<ServerId> targets;
  for (ServerId s : cluster.rack_members(rack)) {
    const Server& srv = cluster.server(s);
    if (srv.alive() && srv.reachable()) targets.push_back(s);
  }
  if (targets.empty()) return;
  if (usable_servers() - static_cast<int>(targets.size()) < config_.min_alive) {
    return;  // partitioning this rack would starve the cluster
  }
  ++partitions_;
  for (ServerId s : targets) ctx_->partition_server(s);
  const SimTime dur =
      partition_rng_.exponential(1.0 / config_.mean_partition_seconds);
  ctx_->sim().after(dur, [this, targets] {
    // Servers that died (and maybe restarted) during the partition come
    // back reachable on their own; heal_server no-ops for them.
    for (ServerId s : targets) ctx_->heal_server(s);
  });
}

}  // namespace stark
