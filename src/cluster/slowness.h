// Fail-slow fault domain: per-server, per-resource latency scorecards.
//
// Fail-stop faults (crashes, partitions) are binary and the heartbeat
// detector catches them; fail-slow faults — a degraded disk, a browning-out
// NIC, a thermally throttled CPU — never miss a heartbeat and silently drag
// every job's tail latency. The SlownessTracker is the driver-side scorecard
// that closes this gap: every completed task reports observed/expected
// latency ratios for the resources it touched (cpu and disk on the executor,
// net per map-output source host), and the tracker classifies each peer as
// Healthy / Suspect / Degraded with hysteresis so one noisy sample cannot
// flap a band.
//
// Detection is honest: the tracker sees only timing ratios the driver could
// measure from completed work, never the simulator's ground-truth
// degradation state. Mitigation (placement deprioritization, adaptive fetch
// timeouts, hedged fetches) consults exclusively the tracker's believed
// state. This is deliberately a *distinct track* from the fail-stop
// exclusion machinery in the TaskScheduler: a Degraded peer still runs
// tasks (it is slow, not dead), is never charged task failures, and is
// probed for re-admission on a timer instead of an exclusion expiry.
//
// Everything here is gated behind SlownessOptions::enabled (default false);
// with the feature off no tracker is constructed and every simulated byte
// is identical to a build without it.
#pragma once

#include <functional>
#include <vector>

#include "common/types.h"

namespace stark {

// Resources a scorecard tracks independently. A server with a dying disk
// is a fine shuffle source; a server behind a flaky NIC computes fine.
enum class SlowResource { kCpu = 0, kDisk = 1, kNet = 2 };
inline constexpr int kSlowResourceCount = 3;
const char* slow_resource_name(SlowResource r) noexcept;

// Per-server health band, derived from the worst qualifying resource.
enum class SlowBand { kHealthy = 0, kSuspect = 1, kDegraded = 2 };
const char* slow_band_name(SlowBand b) noexcept;

// The `slowness` section of FaultOptions. Ratio thresholds are
// observed/expected latency multipliers; the enter thresholds sit above
// the exit threshold so band membership has hysteresis.
struct SlownessOptions {
  // Master switch. Off = no tracker, no hedging, fixed timeouts,
  // byte-identical to a build without the feature.
  bool enabled = false;

  // Scorecard shape: EWMA weight of the newest ratio, ring-buffer window
  // for the adaptive-timeout fetch quantile, the (shorter) per-resource
  // ring the banding median runs over, and the per-resource sample count
  // required before a resource may influence the band. The banding ring is
  // deliberately short: a median over a long window of healthy history
  // needs half the window of slow samples to flip, which turns detection
  // lag from seconds into minutes once the cluster has warmed up.
  double ewma_alpha = 0.25;
  int window = 32;
  int band_window = 9;
  int min_samples = 6;

  // Band thresholds on the effective ratio (max over qualifying resources
  // of min(EWMA, windowed median) — both signals must agree, so a burst
  // of congestion noise in one of them cannot trip a band alone).
  double suspect_ratio = 1.6;    // Healthy -> Suspect at or above
  double degraded_ratio = 2.5;   // -> Degraded at or above
  double recover_ratio = 1.2;    // -> Healthy strictly below (hysteresis)

  // Adaptive fetch deadline, replacing the fixed
  // FaultOptions::fetch_fail_seconds once enough fetches were observed:
  // clamp(timeout_multiplier x quantile(recent fetch seconds), min, max).
  // The same value is the hedge trigger: a fetch projected past it gets a
  // duplicate issued to an alternate source.
  double timeout_quantile = 0.95;
  double timeout_multiplier = 3.0;
  double timeout_min = 0.05;
  double timeout_max = 5.0;

  // Hedged fetches. The per-tenant budget caps cumulative duplicated
  // bytes at this fraction of the tenant's total fetched bytes, so
  // hedging cannot become self-inflicted overload.
  bool hedging = true;
  double hedge_budget_fraction = 0.05;

  // Placement: Degraded peers are offered work only when nothing healthy
  // fits, plus one probe task per probe_interval to test re-admission.
  bool deprioritize_degraded = true;
  double probe_interval = 10.0;
};

// Fail-slow counters surfaced via DagScheduler::slowness_stats(). The
// tracker maintains the scorecard counters; the DagScheduler adds the hedge
// outcomes as it plans fetches.
struct SlownessStats {
  long long observations = 0;       // ratio samples fed to scorecards
  int suspect_entries = 0;          // cumulative transitions into Suspect
  int degraded_entries = 0;         // cumulative transitions into Degraded
  int recoveries = 0;               // transitions back to Healthy
  int suspect_peers = 0;            // current band membership
  int degraded_peers = 0;
  int placement_probes = 0;         // tasks sent to Degraded peers on probe
  long long timeout_adaptations = 0;  // adaptive deadline recomputed >5% off
  long long hedges_issued = 0;
  long long hedges_won = 0;         // hedge beat the slow primary
  long long hedges_lost = 0;        // primary finished first after all
  long long hedges_budget_denied = 0;
  Bytes hedge_bytes_issued = 0.0;   // duplicated fetch traffic
  Bytes hedge_bytes_wasted = 0.0;   // loser's bytes (cancelled side)
  double hedge_seconds_saved = 0.0;  // fetch-phase time removed by wins
};

class SlownessTracker {
 public:
  SlownessTracker(const SlownessOptions& opts, int num_servers);

  // Fired on every band transition: (server, old band, new band).
  using BandChangeFn = std::function<void(ServerId, SlowBand, SlowBand)>;
  void set_band_change(BandChangeFn fn) { on_band_change_ = std::move(fn); }

  // Feed one observed/expected latency ratio for (server, resource).
  // Ratios come from completed task plans: executor cpu/disk stretch and
  // per-source net stretch on shuffle fetches.
  void observe(ServerId server, SlowResource r, double ratio, SimTime now);

  // Feed one observed end-to-end fetch-phase duration (seconds); drives
  // the adaptive timeout / hedge deadline.
  void observe_fetch_seconds(double seconds);

  SlowBand band(ServerId server) const noexcept;
  double ewma(ServerId server, SlowResource r) const noexcept;
  double window_median(ServerId server, SlowResource r) const;

  // Adaptive fetch deadline in seconds, or <= 0 while fewer than
  // min_samples fetches have been observed (callers fall back to the
  // fixed constant / skip hedging).
  double fetch_deadline() const noexcept { return adaptive_timeout_; }

  // Placement: true when the server is believed Degraded and not yet due
  // for a re-admission probe. Callers that launch on a Degraded server
  // anyway must note_probe() so the probe timer restarts.
  bool should_avoid(ServerId server, SimTime now) const noexcept;
  // Resource-aware variant for node-local placement: a peer whose only
  // slow resource is its NIC still computes cached data at full speed, so
  // forfeiting locality for it would *create* a degraded-path fetch. True
  // only when cpu or disk is believed Degraded-slow.
  bool should_avoid_compute(ServerId server, SimTime now) const noexcept;
  void note_probe(ServerId server, SimTime now);

  const SlownessOptions& options() const noexcept { return opts_; }
  SlownessStats& stats() noexcept { return stats_; }
  const SlownessStats& stats() const noexcept { return stats_; }

 private:
  struct Score {
    double ewma[kSlowResourceCount] = {1.0, 1.0, 1.0};
    int samples[kSlowResourceCount] = {0, 0, 0};
    std::vector<float> window[kSlowResourceCount];  // ring of recent ratios
    int next[kSlowResourceCount] = {0, 0, 0};
    SlowBand band = SlowBand::kHealthy;
    SimTime probe_anchor = 0.0;  // Degraded entry / last probe launch
  };

  // One resource's min(EWMA, windowed median); 1.0 until it has
  // min_samples observations.
  double resource_ratio(const Score& sc, int ri) const;
  // Worst qualifying resource's min(EWMA, windowed median); 1.0 until any
  // resource has min_samples observations.
  double effective_ratio(const Score& sc) const;
  void reclassify(ServerId server, Score& sc, SimTime now);

  SlownessOptions opts_;
  std::vector<Score> scores_;
  BandChangeFn on_band_change_;
  SlownessStats stats_;

  // Cluster-wide ring of recent fetch durations for the adaptive deadline.
  std::vector<float> fetch_window_;
  int fetch_next_ = 0;
  long long fetch_count_ = 0;
  double adaptive_timeout_ = -1.0;
  mutable std::vector<float> scratch_;  // quantile workspace
};

}  // namespace stark
