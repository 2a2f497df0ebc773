#include "ids/threat_service.h"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.h"

namespace gaa::ids {

using core::ThreatLevel;

namespace {

/// Scores are held as exact integers, so adding and later subtracting an
/// alert leaves the window sum exactly where it was.
constexpr double kMicrosPerScore = 1e6;
/// An alert within window / kSlicesPerWindow of the newest entry's first
/// alert joins that entry.
constexpr util::DurationUs kSlicesPerWindow = 64;

}  // namespace

ThreatService::ThreatService(core::SystemState* state, util::Clock* clock,
                             Options options)
    : state_(state), clock_(clock), options_(options) {}

ThreatService::LevelChange ThreatService::ReportAlert(double severity) {
  LevelChange change{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    change.previous = level_;
    AddAlertLocked(severity);
    RecomputeLocked();
    change.now = level_;
  }
  // Outside the lock: the hook publishes to the cluster bus, and remote
  // processes may call back into ReportRemoteAlert concurrently.
  if (bus_hook_) bus_hook_(severity, change.now);
  return change;
}

void ThreatService::ReportRemoteAlert(double severity) {
  std::lock_guard<std::mutex> lock(mu_);
  AddAlertLocked(severity);
  RecomputeLocked();
}

void ThreatService::AddAlertLocked(double severity) {
  const util::TimePoint now = clock_->Now();
  const std::int64_t micros = std::llround(severity * kMicrosPerScore);
  window_micros_ += micros;
  if (!alerts_.empty() &&
      now - alerts_.back().first_us < options_.window_us / kSlicesPerWindow) {
    Entry& tail = alerts_.back();
    // The real clock is wall time and can step back; an entry never
    // expires earlier than an alert it already holds.
    tail.last_us = std::max(tail.last_us, now);
    tail.score_micros += micros;
  } else {
    alerts_.push_back(Entry{now, now, micros});
  }
}

void ThreatService::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  RecomputeLocked();
}

void ThreatService::ForceLevel(ThreatLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  ThreatLevel previous = level_;
  level_ = level;
  last_escalation_us_ = clock_->Now();
  if (state_ != nullptr) state_->SetThreatLevel(level_);
  PublishLevelLocked(previous);
}

void ThreatService::AttachMetrics(telemetry::MetricRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    level_gauge_ = nullptr;
    transitions_ = nullptr;
    return;
  }
  level_gauge_ = registry->GetGauge("ids_threat_level");
  transitions_ = registry->GetCounter("ids_threat_transitions_total");
  level_gauge_->Set(static_cast<int>(level_));
}

void ThreatService::PublishLevelLocked(ThreatLevel previous) {
  if (level_gauge_ != nullptr) level_gauge_->Set(static_cast<int>(level_));
  if (transitions_ != nullptr && level_ != previous) transitions_->Inc();
}

ThreatLevel ThreatService::level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return level_;
}

double ThreatService::WindowScore() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::TimePoint cutoff = clock_->Now() - options_.window_us;
  std::int64_t micros = 0;
  for (const Entry& e : alerts_) {
    if (e.last_us >= cutoff) micros += e.score_micros;
  }
  return static_cast<double>(micros) / kMicrosPerScore;
}

std::size_t ThreatService::window_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_.size();
}

void ThreatService::RecomputeLocked() {
  ThreatLevel previous = level_;
  util::TimePoint now = clock_->Now();
  while (!alerts_.empty() &&
         alerts_.front().last_us < now - options_.window_us) {
    window_micros_ -= alerts_.front().score_micros;
    alerts_.pop_front();
  }
  const double score = static_cast<double>(window_micros_) / kMicrosPerScore;

  ThreatLevel target = ThreatLevel::kLow;
  if (score >= options_.high_score) {
    target = ThreatLevel::kHigh;
  } else if (score >= options_.medium_score) {
    target = ThreatLevel::kMedium;
  }

  if (target > level_) {
    level_ = target;
    last_escalation_us_ = now;
  } else if (target < level_ &&
             now - last_escalation_us_ >= options_.decay_us) {
    // Step down one notch per decay period; a calm system does not jump
    // straight from high to low.
    level_ = static_cast<ThreatLevel>(static_cast<int>(level_) - 1);
    last_escalation_us_ = now;
  }
  if (state_ != nullptr) state_->SetThreatLevel(level_);
  PublishLevelLocked(previous);
}

}  // namespace gaa::ids
