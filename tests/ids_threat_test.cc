#include "ids/threat_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <utility>

#include "telemetry/metrics.h"

namespace gaa::ids {
namespace {

using core::ThreatLevel;

/// Differential oracle: the threat service as first written, one deque
/// entry per alert and a full floating-point re-sum of the window on every
/// call.  The production service keeps the sum incrementally in integer
/// micro-units and coalesces alerts less than one slice apart; fed alerts
/// at least one slice apart, the two must agree exactly.
class ReferenceThreatService {
 public:
  ReferenceThreatService(util::Clock* clock, ThreatService::Options options)
      : clock_(clock), options_(options) {}

  void ReportAlert(double severity) {
    alerts_.emplace_back(clock_->Now(), severity);
    Recompute();
  }
  void Tick() { Recompute(); }

  ThreatLevel level() const { return level_; }
  std::uint64_t transitions() const { return transitions_; }
  double WindowScore() const {
    const util::TimePoint cutoff = clock_->Now() - options_.window_us;
    double score = 0;
    for (const auto& [t, s] : alerts_) {
      if (t >= cutoff) score += s;
    }
    return score;
  }

 private:
  void Recompute() {
    const ThreatLevel previous = level_;
    const util::TimePoint now = clock_->Now();
    while (!alerts_.empty() &&
           alerts_.front().first < now - options_.window_us) {
      alerts_.pop_front();
    }
    double score = 0;
    for (const auto& [t, s] : alerts_) score += s;
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
      level_ = static_cast<ThreatLevel>(static_cast<int>(level_) - 1);
      last_escalation_us_ = now;
    }
    if (level_ != previous) ++transitions_;
  }

  util::Clock* clock_;
  ThreatService::Options options_;
  std::deque<std::pair<util::TimePoint, double>> alerts_;
  ThreatLevel level_ = ThreatLevel::kLow;
  util::TimePoint last_escalation_us_ = 0;
  std::uint64_t transitions_ = 0;
};

class ThreatServiceTest : public ::testing::Test {
 protected:
  ThreatServiceTest() : clock_(0), state_(&clock_) {}

  ThreatService::Options QuickOptions() {
    ThreatService::Options opts;
    opts.window_us = 60 * util::kMicrosPerSecond;
    opts.medium_score = 10.0;
    opts.high_score = 30.0;
    opts.decay_us = 120 * util::kMicrosPerSecond;
    return opts;
  }

  util::SimulatedClock clock_;
  core::SystemState state_;
};

TEST_F(ThreatServiceTest, StartsLow) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  EXPECT_EQ(svc.level(), ThreatLevel::kLow);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kLow);
}

TEST_F(ThreatServiceTest, EscalatesToMediumThenHigh) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ReportAlert(6.0);
  EXPECT_EQ(svc.level(), ThreatLevel::kLow);
  svc.ReportAlert(6.0);  // score 12 >= 10
  EXPECT_EQ(svc.level(), ThreatLevel::kMedium);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kMedium);
  svc.ReportAlert(10.0);
  svc.ReportAlert(10.0);  // score 32 >= 30
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
}

TEST_F(ThreatServiceTest, WindowScoreExpires) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ReportAlert(8.0);
  EXPECT_DOUBLE_EQ(svc.WindowScore(), 8.0);
  clock_.Advance(61 * util::kMicrosPerSecond);
  EXPECT_DOUBLE_EQ(svc.WindowScore(), 0.0);
}

TEST_F(ThreatServiceTest, DecaysOneNotchPerQuietPeriod) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ReportAlert(40.0);
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
  // Quiet for one decay period: high -> medium.
  clock_.Advance(125 * util::kMicrosPerSecond);
  svc.Tick();
  EXPECT_EQ(svc.level(), ThreatLevel::kMedium);
  // Another quiet period: medium -> low.
  clock_.Advance(125 * util::kMicrosPerSecond);
  svc.Tick();
  EXPECT_EQ(svc.level(), ThreatLevel::kLow);
}

TEST_F(ThreatServiceTest, NoDecayWhileAlertsKeepComing) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ReportAlert(40.0);
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
  for (int i = 0; i < 4; ++i) {
    clock_.Advance(30 * util::kMicrosPerSecond);
    svc.ReportAlert(40.0);
  }
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
}

TEST_F(ThreatServiceTest, ForceLevelOverrides) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  svc.ForceLevel(ThreatLevel::kHigh);
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
  EXPECT_EQ(state_.threat_level(), ThreatLevel::kHigh);
  svc.ForceLevel(ThreatLevel::kLow);
  EXPECT_EQ(svc.level(), ThreatLevel::kLow);
}

TEST_F(ThreatServiceTest, ReportAlertReturnsItsOwnTransition) {
  ThreatService svc(&state_, &clock_, QuickOptions());
  ThreatService::LevelChange change = svc.ReportAlert(6.0);
  EXPECT_EQ(change.previous, ThreatLevel::kLow);
  EXPECT_EQ(change.now, ThreatLevel::kLow);
  change = svc.ReportAlert(6.0);
  EXPECT_EQ(change.previous, ThreatLevel::kLow);
  EXPECT_EQ(change.now, ThreatLevel::kMedium);
  change = svc.ReportAlert(1.0);
  EXPECT_EQ(change.previous, ThreatLevel::kMedium);
  EXPECT_EQ(change.now, ThreatLevel::kMedium);
}

TEST_F(ThreatServiceTest, MatchesNaiveReferenceOnSeededStreams) {
  ThreatService::Options opts = QuickOptions();
  // Scores are multiples of 0.001 (integer severity x confidence with three
  // decimals); thresholds off that grid keep a floating-point re-sum and an
  // exact integer sum from splitting a tie.
  opts.medium_score = 10.0005;
  opts.high_score = 30.0005;
  const util::DurationUs slice = opts.window_us / 64;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::SimulatedClock clock(0);
    core::SystemState state(&clock);
    telemetry::MetricRegistry registry;
    ThreatService svc(&state, &clock, opts);
    svc.AttachMetrics(&registry);
    ReferenceThreatService ref(&clock, opts);
    telemetry::Counter* transitions =
        registry.GetCounter("ids_threat_transitions_total");

    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> severity(0, 10);
    std::uniform_int_distribution<int> confidence_milli(100, 1000);
    std::uniform_int_distribution<int> pick(0, 99);
    for (int step = 0; step < 3000; ++step) {
      // Mostly bursts a slice or a few apart, some gaps up to a window,
      // and quiet spells of up to three decay periods.
      const int kind = pick(rng);
      util::DurationUs gap;
      if (kind < 70) {
        gap = std::uniform_int_distribution<util::DurationUs>(
            slice, 4 * slice)(rng);
      } else if (kind < 95) {
        gap = std::uniform_int_distribution<util::DurationUs>(
            slice, opts.window_us)(rng);
      } else {
        gap = std::uniform_int_distribution<util::DurationUs>(
            opts.decay_us, 3 * opts.decay_us)(rng);
      }
      clock.Advance(gap);
      if (pick(rng) < 80) {
        const double score =
            severity(rng) * (confidence_milli(rng) / 1000.0);
        svc.ReportAlert(score);
        ref.ReportAlert(score);
      } else {
        svc.Tick();
        ref.Tick();
      }
      ASSERT_EQ(svc.level(), ref.level()) << "step " << step;
      ASSERT_NEAR(svc.WindowScore(), ref.WindowScore(), 1e-6)
          << "step " << step;
      ASSERT_EQ(transitions->Value(), ref.transitions()) << "step " << step;
    }
    // The streams must actually move through every level.
    EXPECT_GT(ref.transitions(), 10u);
  }
}

TEST_F(ThreatServiceTest, AlertFloodKeepsTheWindowBounded) {
  ThreatService::Options opts = QuickOptions();
  ThreatService svc(&state_, &clock_, opts);
  const util::DurationUs slice = opts.window_us / 64;
  constexpr int kAlerts = 1'000'000;
  const util::DurationUs spacing = 2 * opts.window_us / kAlerts;
  std::size_t max_entries = 0;
  for (int i = 0; i < kAlerts; ++i) {
    clock_.Advance(spacing);
    svc.ReportAlert(1.0);
    max_entries = std::max(max_entries, svc.window_entries());
  }
  EXPECT_LE(max_entries, 65u);
  EXPECT_EQ(svc.level(), ThreatLevel::kHigh);
  // Alerts leave at most one slice late and never early: the score lies
  // between the alerts inside the window and those inside window + slice.
  const double in_window =
      static_cast<double>(opts.window_us / spacing) + 1;
  const double in_window_and_slice =
      static_cast<double>((opts.window_us + slice) / spacing) + 1;
  EXPECT_GE(svc.WindowScore(), in_window);
  EXPECT_LE(svc.WindowScore(), in_window_and_slice);
  // Once the flood has aged out the exact sum is back to zero.
  clock_.Advance(opts.window_us + slice + 1);
  svc.Tick();
  EXPECT_EQ(svc.window_entries(), 0u);
  EXPECT_EQ(svc.WindowScore(), 0.0);
}

TEST(ThreatLevelParse, Names) {
  EXPECT_EQ(core::ParseThreatLevel("low"), core::ThreatLevel::kLow);
  EXPECT_EQ(core::ParseThreatLevel("MEDIUM"), core::ThreatLevel::kMedium);
  EXPECT_EQ(core::ParseThreatLevel("High"), core::ThreatLevel::kHigh);
  EXPECT_FALSE(core::ParseThreatLevel("severe").has_value());
  EXPECT_STREQ(core::ThreatLevelName(core::ThreatLevel::kMedium), "medium");
}

}  // namespace
}  // namespace gaa::ids
