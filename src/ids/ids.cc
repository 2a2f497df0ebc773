#include "ids/ids.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace gaa::ids {

IntrusionDetectionSystem::IntrusionDetectionSystem(
    core::SystemState* state, util::Clock* clock,
    ThreatService::Options threat_options)
    : state_(state),
      clock_(clock),
      threat_(state, clock, threat_options),
      bus_(clock),
      anomaly_(clock),
      stream_(sketch::StreamingAnomalyProvider::Options{}),
      signatures_(SignatureDb::KnownWebAttacks()) {}

void IntrusionDetectionSystem::AttachMetrics(
    telemetry::MetricRegistry* registry) {
  metrics_ = registry;
  for (auto& counter : report_counters_) {
    counter.store(nullptr, std::memory_order_relaxed);
  }
  bus_.AttachMetrics(registry);
  threat_.AttachMetrics(registry);
  anomaly_.AttachMetrics(registry);
  stream_.AttachMetrics(registry);
}

void IntrusionDetectionSystem::AttachAudit(core::AuditSink* audit) {
  audit_ = audit;
}

std::size_t IntrusionDetectionSystem::KindSlot(core::ReportKind kind) {
  const auto slot = static_cast<std::size_t>(kind);
  return slot < kKindSlots ? slot : 0;
}

telemetry::Counter* IntrusionDetectionSystem::ReportCounterFor(
    core::ReportKind kind) {
  if (metrics_ == nullptr) return nullptr;
  std::atomic<telemetry::Counter*>& slot = report_counters_[KindSlot(kind)];
  telemetry::Counter* counter = slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = metrics_->GetCounter(
        "ids_reports_total",
        std::string("kind=\"") + core::ReportKindName(kind) + "\"");
    // Release: a thread that loads the handle must also see the counter
    // the registry constructed behind it.
    slot.store(counter, std::memory_order_release);
  }
  return counter;
}

void IntrusionDetectionSystem::Report(const core::IdsReport& report) {
  if (telemetry::Counter* counter = ReportCounterFor(report.kind)) {
    counter->Inc();
  }
  kind_counts_[KindSlot(report.kind)].fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (recent_.size() < kRecentReports) {
      recent_.push_back(report);
    } else {
      recent_[recent_next_] = report;
    }
    recent_next_ = (recent_next_ + 1) % kRecentReports;
  }
  // Severity-weighted feed into the threat profile; benign pattern reports
  // (item 7) do not escalate.
  if (report.kind != core::ReportKind::kLegitimatePattern) {
    const ThreatService::LevelChange change = threat_.ReportAlert(
        static_cast<double>(report.severity) * report.confidence);
    // Only the transition this alert made: a concurrent report or a decay
    // tick changes the level under its own lock and is not blamed here.
    if (audit_ != nullptr && change.now != change.previous) {
      core::AuditEvent event;
      event.category = "threat";
      event.message = std::string("threat level ") +
                      core::ThreatLevelName(change.previous) + " -> " +
                      core::ThreatLevelName(change.now) + " (trigger: " +
                      core::ReportKindName(report.kind) + ")";
      event.client = report.source_ip;
      audit_->Record(event);
    }
  }
  bus_.PublishLazily([&report] {
    Event event;
    event.topic =
        std::string("gaa.report.") + core::ReportKindName(report.kind);
    event.source = "gaa-api";
    event.severity = report.severity;
    event.payload = "ip=" + report.source_ip + " object=" + report.object +
                    " type=" + report.attack_type + " detail=" + report.detail;
    return event;
  });

  // Adaptive values track the (possibly just escalated) threat level.
  RecomputeAdaptiveValues();
}

void IntrusionDetectionSystem::ObserveRequest(std::string_view client_ip,
                                              std::string_view path,
                                              util::TimePoint now_us) {
  double severity;
  double threshold;
  if (anomaly_mode_ == AnomalyMode::kStreaming) {
    severity = stream_.Observe(client_ip, path, now_us);
    threshold = stream_.options().report_threshold;
  } else {
    // Differential reference: the exact detector scores the same stream so
    // tests can compare verdicts against the sketch path.
    RequestFeatures features;
    features.principal = std::string(client_ip);
    features.path = std::string(path);
    features.url_depth = static_cast<double>(
        std::count(path.begin(), path.end(), '/'));
    severity = anomaly_.Observe(features);
    threshold = anomaly_.options().score_threshold;
  }
  if (severity < threshold) return;
  core::IdsReport report;
  report.kind = core::ReportKind::kSuspiciousBehavior;
  report.source_ip = std::string(client_ip);
  report.object = std::string(path);
  report.attack_type = "stream_anomaly";
  report.severity = static_cast<int>(severity);
  report.confidence = 0.8;
  report.detail = anomaly_mode_ == AnomalyMode::kStreaming
                      ? "sketch features crossed thresholds"
                      : "exact profile z-score crossed threshold";
  Report(report);
}

void IntrusionDetectionSystem::PeriodicMaintenance() {
  threat_.Tick();
  if (clock_ != nullptr) stream_.MaintenanceTick(clock_->Now());
  // The tick may have decayed the level; adaptive thresholds must follow.
  RecomputeAdaptiveValues();
}

bool IntrusionDetectionSystem::SuspectedSpoofing(const std::string& source_ip) {
  std::lock_guard<std::mutex> lock(mu_);
  return spoofed_sources_.count(source_ip) > 0;
}

void IntrusionDetectionSystem::MarkSpoofedSource(const std::string& source_ip) {
  std::lock_guard<std::mutex> lock(mu_);
  spoofed_sources_.insert(source_ip);
}

void IntrusionDetectionSystem::ClearSpoofedSources() {
  std::lock_guard<std::mutex> lock(mu_);
  spoofed_sources_.clear();
}

void IntrusionDetectionSystem::PushAdaptiveValue(const std::string& var_name,
                                                 const std::string& value) {
  if (state_ != nullptr) state_->SetVariable(var_name, value);
}

void IntrusionDetectionSystem::RecomputeAdaptiveValues() {
  if (state_ == nullptr) return;
  switch (threat_.level()) {
    case core::ThreatLevel::kLow:
      state_->SetVariable("gaa.max_cgi_input", "1000");
      state_->SetVariable("gaa.rate_limit", "100");
      state_->SetVariable("gaa.lockdown_hours", "00:00-24:00");
      break;
    case core::ThreatLevel::kMedium:
      state_->SetVariable("gaa.max_cgi_input", "500");
      state_->SetVariable("gaa.rate_limit", "30");
      state_->SetVariable("gaa.lockdown_hours", "08:00-18:00");
      break;
    case core::ThreatLevel::kHigh:
      state_->SetVariable("gaa.max_cgi_input", "200");
      state_->SetVariable("gaa.rate_limit", "5");
      state_->SetVariable("gaa.lockdown_hours", "09:00-17:00");
      break;
  }
}

std::vector<core::IdsReport> IntrusionDetectionSystem::ReportsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (recent_.size() < kRecentReports) return recent_;
  std::vector<core::IdsReport> ordered;
  ordered.reserve(recent_.size());
  ordered.insert(ordered.end(), recent_.begin() + recent_next_, recent_.end());
  ordered.insert(ordered.end(), recent_.begin(), recent_.begin() + recent_next_);
  return ordered;
}

std::size_t IntrusionDetectionSystem::report_count() const {
  std::size_t n = 0;
  for (const auto& count : kind_counts_) {
    n += count.load(std::memory_order_relaxed);
  }
  return n;
}

std::size_t IntrusionDetectionSystem::CountKind(core::ReportKind kind) const {
  return kind_counts_[KindSlot(kind)].load(std::memory_order_relaxed);
}

}  // namespace gaa::ids
