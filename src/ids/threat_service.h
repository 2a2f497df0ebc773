// Threat-level service: the IDS component that "supplies a system threat
// level" (paper §7.1: low = normal operation, medium = suspicious behaviour,
// high = under attack).
//
// The service aggregates severity-weighted alert scores over a sliding
// window and maps the score to a level via two thresholds; levels decay
// back down after a quiet period.  It writes the level into the shared
// SystemState, where `pre_cond_system_threat_level` reads it.
//
// The window sum is kept incrementally in integer micro-units, so an alert
// costs the same however many came before, and alerts that arrive within
// one slice (window / 64) of each other share one window entry, so the
// window's memory is bounded under a flood.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "gaa/system_state.h"
#include "util/clock.h"

namespace gaa::telemetry {
class Counter;
class Gauge;
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::ids {

class ThreatService {
 public:
  struct Options {
    util::DurationUs window_us = 60 * util::kMicrosPerSecond;
    double medium_score = 10.0;  ///< window score that raises level to medium
    double high_score = 30.0;    ///< window score that raises level to high
    /// Quiet time after which the level steps down one notch.
    util::DurationUs decay_us = 120 * util::kMicrosPerSecond;
  };

  ThreatService(core::SystemState* state, util::Clock* clock)
      : ThreatService(state, clock, Options{}) {}
  ThreatService(core::SystemState* state, util::Clock* clock,
                Options options);

  /// The level before and after one alert, both read under the lock that
  /// applied it.
  struct LevelChange {
    core::ThreatLevel previous;
    core::ThreatLevel now;
  };

  /// Feed one alert (severity 0..10).  Recomputes and publishes the level,
  /// and returns the transition this call made (if any).
  LevelChange ReportAlert(double severity);

  /// Feed an alert that originated in *another* process (cluster bus
  /// delivery, DESIGN.md §15).  Identical window/score treatment to
  /// ReportAlert, but never re-invokes the bus hook — remote alerts must
  /// not echo back onto the bus.
  void ReportRemoteAlert(double severity);

  /// Cluster hook: invoked (outside the service lock) after every locally
  /// originated alert, with the alert's severity and the level it produced.
  /// The cluster glue publishes both onto the shared-memory bus.
  using BusHook = std::function<void(double severity, core::ThreatLevel now)>;
  void set_bus_hook(BusHook hook) { bus_hook_ = std::move(hook); }

  /// Re-evaluate decay; call periodically (or before reads in tests).
  void Tick();

  /// Administrator override (also what a remote IDS would push).
  void ForceLevel(core::ThreatLevel level);

  /// Export the level as gauge `ids_threat_level` (0=low 1=medium 2=high)
  /// and level changes as counter `ids_threat_transitions_total`.
  void AttachMetrics(telemetry::MetricRegistry* registry);

  core::ThreatLevel level() const;
  double WindowScore() const;
  /// Entries the window holds: at most window / slice + 2 (66), whatever
  /// the alert rate.
  std::size_t window_entries() const;

 private:
  /// Alerts whose arrival falls within one slice of `first_us` share this
  /// entry; it expires with its newest alert, so an alert leaves the window
  /// at most one slice late and never early.
  struct Entry {
    util::TimePoint first_us;
    util::TimePoint last_us;
    std::int64_t score_micros;
  };

  void AddAlertLocked(double severity);
  void RecomputeLocked();
  void PublishLevelLocked(core::ThreatLevel previous);

  core::SystemState* state_;
  util::Clock* clock_;
  Options options_;
  BusHook bus_hook_;  // set before serving starts; never under mu_
  telemetry::Gauge* level_gauge_ = nullptr;
  telemetry::Counter* transitions_ = nullptr;
  mutable std::mutex mu_;
  std::deque<Entry> alerts_;
  std::int64_t window_micros_ = 0;  ///< sum of alerts_[*].score_micros
  core::ThreatLevel level_ = core::ThreatLevel::kLow;
  util::TimePoint last_escalation_us_ = 0;
};

}  // namespace gaa::ids
