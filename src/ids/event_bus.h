// Event bus + subscription channels.
//
// Paper §9 (future work): "We plan to design a policy-controlled interface
// for establishing a subscription-based communication channels to allow
// GAA-API and IDSs to communicate."  We implement it: publishers post typed
// events to topics; subscribers register callbacks with an optional
// per-subscription policy filter (minimum severity, topic glob), which is
// the "policy-controlled" part.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gaa/services.h"
#include "util/clock.h"
#include "util/glob.h"

namespace gaa::telemetry {
class Counter;
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::ids {

struct Event {
  std::string topic;    ///< e.g. "gaa.report.detected_attack"
  std::string source;   ///< component name
  int severity = 0;     ///< 0..10
  std::string payload;  ///< free-form detail
  util::TimePoint time_us = 0;
};

using EventCallback = std::function<void(const Event&)>;

/// Per-subscription delivery policy.
struct SubscriptionPolicy {
  std::string topic_pattern = "*";  ///< glob over topics
  int min_severity = 0;             ///< drop events below this severity
};

class EventBus {
 public:
  using SubscriptionId = std::uint64_t;

  explicit EventBus(util::Clock* clock) : clock_(clock) {}

  SubscriptionId Subscribe(SubscriptionPolicy policy, EventCallback callback);
  bool Unsubscribe(SubscriptionId id);

  /// Deliver synchronously to every matching subscriber.
  void Publish(Event event);

  /// Publish the event `make()` returns, calling `make` only when someone is
  /// subscribed: a publisher with nobody listening builds no event.  The
  /// publish is counted either way.
  template <typename MakeEvent>
  void PublishLazily(MakeEvent&& make) {
    if (subscribers_.load(std::memory_order_relaxed) == 0) {
      CountPublished();
      return;
    }
    Publish(make());
  }

  /// Export publish/delivery counts as `ids_events_published_total` /
  /// `ids_events_delivered_total`.  Call before concurrent Publish traffic;
  /// null detaches.
  void AttachMetrics(telemetry::MetricRegistry* registry);

  std::size_t subscriber_count() const;
  std::uint64_t published_count() const;
  std::uint64_t delivered_count() const;

 private:
  struct Subscription {
    SubscriptionPolicy policy;
    util::CompiledGlob topic_glob;
    EventCallback callback;
  };

  void CountPublished();

  util::Clock* clock_;
  telemetry::Counter* published_counter_ = nullptr;
  telemetry::Counter* delivered_counter_ = nullptr;
  std::atomic<std::uint64_t> published_{0};
  mutable std::mutex mu_;
  std::map<SubscriptionId, Subscription> subs_;
  std::atomic<std::size_t> subscribers_{0};  ///< subs_.size(), read unlocked
  SubscriptionId next_id_ = 1;
  std::uint64_t delivered_ = 0;
};

/// Wire high-severity bus events to administrator notification — a
/// consumer of the §9 policy-controlled subscription channel: the
/// severity floor IS the subscription policy.  Returns the subscription id
/// (Unsubscribe() to disconnect).
EventBus::SubscriptionId ConnectAlertNotifications(
    EventBus& bus, core::NotificationService& notifier,
    int min_severity = 8, const std::string& recipient = "sysadmin");

}  // namespace gaa::ids
