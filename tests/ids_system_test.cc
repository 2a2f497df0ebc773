#include "ids/ids.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace gaa::ids {
namespace {

using core::ReportKind;
using core::ThreatLevel;

/// Counts "threat" audit events; safe to record into from many threads.
class ThreatAuditCounter final : public core::AuditSink {
 public:
  void Record(const std::string& category, const std::string&) override {
    if (category == "threat") threat_events.fetch_add(1);
  }
  std::atomic<std::uint64_t> threat_events{0};
};

core::IdsReport ReportOfKind(int i) {
  core::IdsReport r;
  r.kind = static_cast<ReportKind>(1 + i % 7);
  r.source_ip = "198.51.100." + std::to_string(i % 250);
  r.object = "/obj/" + std::to_string(i);
  r.attack_type = "mixed";
  r.severity = i % 11;
  r.confidence = 0.5;
  r.detail = std::to_string(i);
  return r;
}

class IdsSystemTest : public ::testing::Test {
 protected:
  IdsSystemTest() : clock_(0), state_(&clock_), ids_(&state_, &clock_) {}

  core::IdsReport Attack(int severity, double confidence = 1.0) {
    core::IdsReport r;
    r.kind = ReportKind::kDetectedAttack;
    r.source_ip = "203.0.113.9";
    r.object = "/cgi-bin/phf";
    r.attack_type = "cgi_exploit";
    r.severity = severity;
    r.confidence = confidence;
    return r;
  }

  util::SimulatedClock clock_;
  core::SystemState state_;
  IntrusionDetectionSystem ids_;
};

TEST_F(IdsSystemTest, ReportsAccumulate) {
  ids_.Report(Attack(5));
  ids_.Report(Attack(7));
  EXPECT_EQ(ids_.report_count(), 2u);
  EXPECT_EQ(ids_.CountKind(ReportKind::kDetectedAttack), 2u);
  EXPECT_EQ(ids_.CountKind(ReportKind::kIllFormedRequest), 0u);
}

TEST_F(IdsSystemTest, AttackReportsEscalateThreatLevel) {
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kLow);
  ids_.Report(Attack(8));
  ids_.Report(Attack(8));
  EXPECT_GE(static_cast<int>(state_.threat_level()),
            static_cast<int>(ThreatLevel::kMedium));
  for (int i = 0; i < 4; ++i) ids_.Report(Attack(9));
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kHigh);
}

TEST_F(IdsSystemTest, LegitimatePatternsDoNotEscalate) {
  core::IdsReport r;
  r.kind = ReportKind::kLegitimatePattern;
  r.severity = 10;  // even a large value must not count
  r.confidence = 1.0;
  for (int i = 0; i < 20; ++i) ids_.Report(r);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kLow);
}

TEST_F(IdsSystemTest, ConfidenceWeighsSeverity) {
  ids_.Report(Attack(10, /*confidence=*/0.1));  // weight 1.0
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kLow);
}

TEST_F(IdsSystemTest, ReportsPublishOnTheBus) {
  std::vector<Event> events;
  ids_.bus().Subscribe({"gaa.report.*", 0},
                       [&](const Event& e) { events.push_back(e); });
  ids_.Report(Attack(6));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].topic, "gaa.report.detected_attack");
  EXPECT_NE(events[0].payload.find("203.0.113.9"), std::string::npos);
}

TEST_F(IdsSystemTest, BusEventIsBuiltTheSameForALateSubscriber) {
  for (int i = 0; i < 5; ++i) ids_.Report(Attack(4));
  std::vector<Event> events;
  ids_.bus().Subscribe({"*", 0},
                       [&](const Event& e) { events.push_back(e); });
  clock_.Advance(42);
  core::IdsReport r = Attack(6);
  r.detail = "query matched";
  ids_.Report(r);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].topic, "gaa.report.detected_attack");
  EXPECT_EQ(events[0].source, "gaa-api");
  EXPECT_EQ(events[0].severity, 6);
  EXPECT_EQ(events[0].payload,
            "ip=203.0.113.9 object=/cgi-bin/phf type=cgi_exploit "
            "detail=query matched");
  EXPECT_EQ(events[0].time_us, 42);
  EXPECT_EQ(ids_.bus().published_count(), 6u);
}

TEST_F(IdsSystemTest, PublishesAreCountedWithOrWithoutASubscriber) {
  telemetry::MetricRegistry quiet_registry;
  telemetry::MetricRegistry heard_registry;
  IntrusionDetectionSystem quiet(&state_, &clock_);
  IntrusionDetectionSystem heard(&state_, &clock_);
  quiet.AttachMetrics(&quiet_registry);
  heard.AttachMetrics(&heard_registry);
  int delivered = 0;
  heard.bus().Subscribe({"*", 0}, [&](const Event&) { ++delivered; });
  for (int i = 0; i < 50; ++i) {
    quiet.Report(ReportOfKind(i));
    heard.Report(ReportOfKind(i));
  }
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(quiet.bus().published_count(), 50u);
  EXPECT_EQ(heard.bus().published_count(), 50u);
  EXPECT_EQ(quiet_registry.GetCounter("ids_events_published_total")->Value(),
            50u);
  EXPECT_EQ(heard_registry.GetCounter("ids_events_published_total")->Value(),
            50u);
}

TEST_F(IdsSystemTest, CountsCoverEveryReportAndMatchTheMetrics) {
  telemetry::MetricRegistry registry;
  ids_.AttachMetrics(&registry);
  constexpr int kReports = 100'000;
  for (int i = 0; i < kReports; ++i) ids_.Report(ReportOfKind(i));
  EXPECT_EQ(ids_.report_count(), static_cast<std::size_t>(kReports));
  std::size_t sum = 0;
  for (int k = 1; k <= 7; ++k) {
    const auto kind = static_cast<ReportKind>(k);
    // i % 7 == k - 1 for i in [0, kReports).
    const std::size_t expected = (kReports - (k - 1) + 6) / 7;
    EXPECT_EQ(ids_.CountKind(kind), expected) << core::ReportKindName(kind);
    EXPECT_EQ(registry
                  .GetCounter("ids_reports_total",
                              std::string("kind=\"") +
                                  core::ReportKindName(kind) + "\"")
                  ->Value(),
              ids_.CountKind(kind))
        << core::ReportKindName(kind);
    sum += ids_.CountKind(kind);
  }
  EXPECT_EQ(sum, static_cast<std::size_t>(kReports));
}

TEST_F(IdsSystemTest, SnapshotHoldsTheNewestReportsOldestFirst) {
  constexpr int kReports = 3000;
  for (int i = 0; i < kReports; ++i) ids_.Report(ReportOfKind(i));
  const std::vector<core::IdsReport> recent = ids_.ReportsSnapshot();
  ASSERT_EQ(recent.size(), IntrusionDetectionSystem::kRecentReports);
  const int first =
      kReports - static_cast<int>(IntrusionDetectionSystem::kRecentReports);
  for (std::size_t i = 0; i < recent.size(); ++i) {
    ASSERT_EQ(recent[i].detail, std::to_string(first + static_cast<int>(i)))
        << "slot " << i;
  }
  EXPECT_EQ(ids_.report_count(), static_cast<std::size_t>(kReports));
}

TEST(IdsSystemConcurrency, EachThreatTransitionIsAuditedOnce) {
  // A one-microsecond window with no decay delay makes the level swing on
  // nearly every report, so concurrent reports cross thresholds constantly.
  util::SimulatedClock clock(0);
  core::SystemState state(&clock);
  ThreatService::Options opts;
  opts.window_us = 1;
  opts.medium_score = 10.0;
  opts.high_score = 30.0;
  opts.decay_us = 0;
  IntrusionDetectionSystem ids(&state, &clock, opts);
  telemetry::MetricRegistry registry;
  ThreatAuditCounter audit;
  ids.AttachMetrics(&registry);
  ids.AttachAudit(&audit);

  constexpr int kThreads = 8;
  constexpr int kReportsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, &clock, t] {
      for (int i = 0; i < kReportsPerThread; ++i) {
        core::IdsReport r;
        r.kind = ReportKind::kDetectedAttack;
        r.source_ip = "203.0.113." + std::to_string(t);
        r.severity = (i + t) % 2 == 0 ? 10 : 0;
        r.confidence = 1.0;
        clock.Advance(1);
        ids.Report(r);
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t transitions =
      registry.GetCounter("ids_threat_transitions_total")->Value();
  EXPECT_GT(transitions, 0u);
  EXPECT_EQ(audit.threat_events.load(), transitions);
  EXPECT_EQ(ids.CountKind(ReportKind::kDetectedAttack),
            static_cast<std::size_t>(kThreads * kReportsPerThread));
}

TEST_F(IdsSystemTest, SpoofingOracle) {
  EXPECT_FALSE(ids_.SuspectedSpoofing("1.2.3.4"));
  ids_.MarkSpoofedSource("1.2.3.4");
  EXPECT_TRUE(ids_.SuspectedSpoofing("1.2.3.4"));
  ids_.ClearSpoofedSources();
  EXPECT_FALSE(ids_.SuspectedSpoofing("1.2.3.4"));
}

TEST_F(IdsSystemTest, AdaptiveValuesTightenWithThreat) {
  ids_.RecomputeAdaptiveValues();
  EXPECT_EQ(state_.GetVariable("gaa.max_cgi_input").value(), "1000");

  ids_.threat().ForceLevel(ThreatLevel::kHigh);
  ids_.RecomputeAdaptiveValues();
  EXPECT_EQ(state_.GetVariable("gaa.max_cgi_input").value(), "200");
  EXPECT_EQ(state_.GetVariable("gaa.rate_limit").value(), "5");

  ids_.threat().ForceLevel(ThreatLevel::kMedium);
  ids_.RecomputeAdaptiveValues();
  EXPECT_EQ(state_.GetVariable("gaa.max_cgi_input").value(), "500");
}

TEST_F(IdsSystemTest, ReportTriggersAdaptiveRecompute) {
  for (int i = 0; i < 6; ++i) ids_.Report(Attack(9));
  ASSERT_EQ(state_.threat_level(), ThreatLevel::kHigh);
  // The report path recomputes adaptive values automatically.
  EXPECT_EQ(state_.GetVariable("gaa.max_cgi_input").value(), "200");
}

TEST_F(IdsSystemTest, PushAdaptiveValue) {
  ids_.PushAdaptiveValue("custom.threshold", "42");
  EXPECT_EQ(state_.GetVariable("custom.threshold").value(), "42");
}

}  // namespace
}  // namespace gaa::ids
