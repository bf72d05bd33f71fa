// Health vocabulary shared by the dispatch engine, the controller, and DNS
// (DESIGN.md §10): a five-state per-target health status and the passive
// outlier-ejection state machine the engine runs per replica
// (consecutive-failure and latency-outlier ejection with a bounded
// max-ejection fraction, cf. Envoy's upstream outlier detection).
//
// State machine (ReplicaHealth):
//
//   kHealthy ──latency outlier──▶ kDegraded ──strikes/failures──▶ kEjected
//      ▲  ▲                          │  ▲                             │
//      │  └────verdict clears────────┘  │                     ejection time
//      │                                │                       elapses
//      └──half-open success── kRecovering ◀─────────────────────────┘
//                                │
//                 any failure / still an outlier: re-eject
//                 (ejection time grows with the ejection count)
//
// kDegraded targets stay eligible but are load-deprioritized (the engine
// adds OutlierConfig::degraded_load_penalty to their effective load), which
// makes {healthy} ≻ {degraded, recovering} ≻ {ejected} a per-region priority
// failover ladder; cross-region forwarding is the tier below that.
// kRecovering targets are half-open: the engine admits at most one
// outstanding request until a success (or a clean latency verdict on a fresh
// sample) confirms recovery.
//
// The machine itself is time- and fleet-agnostic on purpose: callers pass in
// `now`, the latency-outlier verdict, and apply the max-ejection-fraction
// clamp themselves (EjectionAllowed), which keeps every transition unit-
// testable without a simulator.

#ifndef SKYWALKER_ROUTING_HEALTH_H_
#define SKYWALKER_ROUTING_HEALTH_H_

#include <cstddef>
#include <cstdint>

#include "src/common/sim_time.h"

namespace skywalker {

enum class HealthStatus {
  kHealthy,     // Full member of the serving set.
  kDegraded,    // Eligible but load-deprioritized (suspected outlier).
  kRecovering,  // Half-open: probing its way back after an ejection.
  kEjected,     // Passively ejected; takes no traffic until the timer runs.
  kFailed,      // Administratively down (LB failure, §4.2).
};

// Whether a target in `status` may take traffic at all. The half-open
// restriction on kRecovering (one request at a time) is the caller's job.
inline bool CanServe(HealthStatus status) {
  return status != HealthStatus::kEjected && status != HealthStatus::kFailed;
}

// Passive outlier-detection knobs (all inert at the defaults: `enabled`
// gates every code path, so default-config runs are byte-identical to the
// pre-resilience engine).
struct OutlierConfig {
  bool enabled = false;

  // A dispatched request unanswered for this long counts as a failure: the
  // engine reclaims its outstanding slot, reports on_error to the client
  // (which retries elsewhere), and suppresses the late completion if the
  // replica was merely slow. 0 disables timeouts even when enabled.
  SimDuration request_timeout = Seconds(30);

  // A heartbeat probe unanswered for this long counts as a failure. Must
  // comfortably exceed the probe round trip to the farthest managed replica
  // (failover can attach remote replicas). 0 disables probe-miss detection.
  SimDuration probe_timeout = Seconds(1);

  // Consecutive failures (request timeouts + probe misses) that eject.
  int consecutive_failures = 3;

  // Latency-outlier ejection: a replica whose probed EWMA decode latency
  // exceeds `latency_factor` x the fleet median collects a strike per probe
  // round; `latency_strikes_to_eject` strikes eject it. The first strike
  // degrades it (load-deprioritized). <= 0 disables latency detection.
  double latency_factor = 3.0;
  int latency_strikes_to_eject = 3;

  // Ejection duration: base * min(ejection_count, max_ejection_backoff),
  // Envoy-style linear backoff for repeat offenders.
  SimDuration base_ejection_time = Seconds(5);
  int max_ejection_backoff = 8;

  // Added to a kDegraded replica's effective load in least-loaded scans:
  // the soft priority that makes healthy replicas win until they are this
  // many requests deep.
  double degraded_load_penalty = 8.0;
};

// Latency detection needs at least this many eligible replicas reporting
// samples before a median is meaningful.
inline constexpr int kMinLatencyHosts = 3;

// At most this fraction of the fleet may be ejected at once (the engine's
// EjectionAllowed argument). Failures past the clamp leave the replica
// degraded instead of ejected.
inline constexpr double kMaxEjectionFraction = 0.5;

// Max-ejection-fraction clamp: may one more target be ejected? The first
// ejection is always allowed (fraction > 0), so a two-replica region can
// still shed its straggler.
bool EjectionAllowed(int currently_ejected, size_t fleet_size,
                     double max_ejection_fraction);

// Latency-outlier verdict for one evaluation round (see EvaluateLatency).
enum class LatencyVerdict {
  kNone,        // No state change.
  kDegraded,    // Newly degraded (first strike).
  kWantsEject,  // Strikes exhausted — eject if the clamp allows.
  kRecovered,   // Recovering target confirmed clean on a fresh sample.
};

// Per-replica passive health state machine. Pure bookkeeping: the caller
// supplies time, verdicts, and the ejection clamp.
class ReplicaHealth {
 public:
  HealthStatus status() const { return status_; }
  int consecutive_failures() const { return consecutive_failures_; }
  int latency_strikes() const { return latency_strikes_; }
  int ejection_count() const { return ejection_count_; }
  SimTime ejected_until() const { return ejected_until_; }

  // A request completed against this target. Returns true when this success
  // closes a half-open recovery (kRecovering -> kHealthy).
  bool RecordSuccess();

  // A probe response arrived: the target is reachable. Clears the
  // consecutive-failure count but does NOT confirm recovery — a latency-
  // ejected straggler answers probes just fine.
  void RecordProbeSuccess();

  // A request timeout or probe miss. Returns true when the failure warrants
  // ejection (threshold reached, or any failure while half-open); the caller
  // applies EjectionAllowed and calls Eject. Below the threshold the target
  // degrades so failover ordering already routes around it.
  bool RecordFailure(const OutlierConfig& config);

  // One latency-evaluation round. `outlier` is this round's verdict against
  // the fleet median; `fresh_sample` is whether the EWMA has incorporated a
  // completion since the last ejection (half-open evidence). Returns what
  // happened; on kWantsEject the caller applies the clamp and calls Eject.
  LatencyVerdict EvaluateLatency(const OutlierConfig& config, bool outlier,
                                 bool fresh_sample);

  // Transitions to kEjected until now + base * min(count+1, backoff cap).
  void Eject(const OutlierConfig& config, SimTime now);

  bool EjectionExpired(SimTime now) const {
    return status_ == HealthStatus::kEjected && now >= ejected_until_;
  }

  // kEjected -> kRecovering (half-open) once the ejection timer ran out.
  void BeginRecovery();

  void Reset();  // Back to kHealthy with cleared counters (LB recovery).

 private:
  HealthStatus status_ = HealthStatus::kHealthy;
  int consecutive_failures_ = 0;
  int latency_strikes_ = 0;
  int ejection_count_ = 0;
  int recovery_successes_ = 0;
  SimTime ejected_until_ = 0;
};

}  // namespace skywalker

#endif  // SKYWALKER_ROUTING_HEALTH_H_
