// Load generator: one epoll thread driving a handful of keep-alive
// connections over loopback, in two modes.
//
//   open loop    every request has an intended send time fixed before the
//                run (a seeded Poisson schedule); latency is timed from that
//                intended time, so a stall is charged to every request that
//                queued behind it.  Requests are pipelined on their
//                connection, so the schedule is kept even when the server
//                falls behind.
//   closed loop  each benign connection keeps one request outstanding;
//                capacity is the rate of correct responses.
//
// Each benign connection binds a source address of its own; every attack
// opens its own connection from a fresh address, so the section 7.2
// blacklist only ever catches attackers.  A `Connection: close` answer (the
// server's keep-alive cap, or a protocol 4xx) makes the connection
// reconnect and resend what it had pipelined behind that answer; it is not
// an error.  Every response goes through the oracle (Matches).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace perfbench {


/// One response at the front of a byte buffer.
struct ParsedResponse {
  int status = 0;
  bool close = false;         ///< `Connection: close`
  std::string_view etag;
  std::string_view body;
  std::size_t size = 0;       ///< bytes of head + body
};

/// Parse the response at the front of `buf`; false while it is incomplete
/// or when the head is malformed (*malformed set).
bool ParseResponse(std::string_view buf, ParsedResponse* out, bool* malformed);

/// The oracle: status, body and validator as the workload expects.
bool Matches(const Request& request, const ParsedResponse& response);

/// Counts over everything sent.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< no response, transport error, or mismatch
  std::uint64_t attacks = 0;
  std::uint64_t framing_rejects = 0;  ///< attacks the transport must reject
  std::uint64_t reconnects = 0;
  std::uint64_t retries = 0;  ///< answers lost to a reset and asked again
  /// A benign request denied or an attack answered 2xx: the run is invalid.
  std::string fatal;
  void Add(const Tally& other);
};

struct OpenLoopResult {
  Tally tally;
  std::vector<double> latency_us;  ///< benign, from the intended send time
  std::vector<double> service_us;  ///< benign, from the actual send
  std::vector<double> late_us;     ///< actual minus intended send, all
};

struct ClosedLoopResult {
  Tally tally;
  std::uint64_t correct = 0;  ///< correct answers in the measured time
  double seconds = 0;         ///< the measured time
  /// Time the generator spent handling socket events in the measured
  /// time (it polls without sleeping, so its CPU time says nothing).
  double client_busy_us = 0;
};

class LoadGenerator {
 public:
  LoadGenerator(const Workload& workload, const RequestPools& pools,
                std::uint16_t port);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open loop at the workload's rate for `seconds`; the schedule is a pure
  /// function of `seed`.
  OpenLoopResult RunOpen(double seconds, std::uint64_t seed);

  /// Closed loop until `benign_requests` benign answers: brings the server
  /// to the same state on every run, however fast it runs.
  Tally WarmUp(std::uint64_t benign_requests);

  /// Closed loop until `requests` correct answers (or `max_seconds`);
  /// `at_edge` runs right before and right after the measured time.
  ClosedLoopResult RunClosed(std::uint64_t requests, double max_seconds,
                             const std::function<void()>& at_edge);

 private:
  struct Conn;
  struct Pending;

  void Open(Conn& conn, std::uint32_t source);
  void CloseFd(Conn& conn);
  void Enqueue(Conn& conn, Pending pending);
  void Flush(Conn& conn);
  void UpdateInterest(Conn& conn);
  void StartAttack();
  void BeginClosed();
  /// Closed loop: give `conn` its next request (not flushed).
  void TopUp(Conn& conn);
  Tally EndClosed();
  void OnEvent(Conn& conn, std::uint32_t events);
  void OnReadable(Conn& conn);
  void OnClosed(Conn& conn, bool answered_close);
  void Complete(Conn& conn, const ParsedResponse* response);
  void Poll(std::int64_t timeout_ns);
  std::size_t Outstanding() const;
  /// Count whatever is still unanswered as failed.
  void FailOutstanding();

  const Workload& workload_;
  const RequestPools& pools_;
  std::uint16_t port_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;  ///< benign connections, then the attack slot
  std::vector<Pending> attack_queue_;
  std::size_t attack_queue_head_ = 0;
  std::uint64_t next_attack_source_ = 0;
  std::size_t next_benign_ = 0;
  std::size_t next_attack_ = 0;

  // Per-run state.
  bool closed_sending_ = false;
  Tally tally_;
  std::uint64_t correct_ = 0;
  std::uint64_t benign_done_ = 0;
  std::uint64_t attacks_started_ = 0;
  std::uint64_t benign_sent_ = 0;  ///< closed loop
  OpenLoopResult* open_ = nullptr;  ///< set while the open loop runs
  std::int64_t busy_ns_ = 0;  ///< time spent in OnEvent, all runs
};

}  // namespace perfbench
