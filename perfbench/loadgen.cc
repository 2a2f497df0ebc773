#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <optional>

#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace {

constexpr std::int64_t kNsPerSecond = 1'000'000'000;
constexpr std::int64_t kSpinNs = 2'000'000;

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * kNsPerSecond + ts.tv_nsec;
}

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, std::strerror(errno));
  std::exit(2);
}

}  // namespace

void Tally::Add(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  attacks += other.attacks;
  framing_rejects += other.framing_rejects;
  reconnects += other.reconnects;
  retries += other.retries;
  if (fatal.empty()) fatal = other.fatal;
}

bool ParseResponse(std::string_view buf, ParsedResponse* out,
                   bool* malformed) {
  *malformed = false;
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    *malformed = buf.size() > 64 * 1024;
    return false;
  }
  ParsedResponse r;
  const std::size_t sp = buf.find(' ');
  if (buf.substr(0, 5) != "HTTP/" || sp == std::string_view::npos ||
      sp + 4 > head_end) {
    *malformed = true;
    return false;
  }
  for (std::size_t i = sp + 1; i < sp + 4; ++i) {
    if (buf[i] < '0' || buf[i] > '9') {
      *malformed = true;
      return false;
    }
    r.status = r.status * 10 + (buf[i] - '0');
  }
  std::size_t content_length = 0;
  for (std::size_t pos = buf.find("\r\n") + 2; pos < head_end;) {
    const std::size_t eol = buf.find("\r\n", pos);
    const std::string_view line = buf.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view name = line.substr(0, colon);
      const std::string_view value = gaa::util::Trim(line.substr(colon + 1));
      if (gaa::util::EqualsIgnoreCase(name, "content-length")) {
        const std::optional<std::int64_t> length = gaa::util::ParseInt(value);
        if (!length || *length < 0) {
          *malformed = true;
          return false;
        }
        content_length = static_cast<std::size_t>(*length);
      } else if (gaa::util::EqualsIgnoreCase(name, "connection")) {
        r.close = gaa::util::EqualsIgnoreCase(value, "close");
      } else if (gaa::util::EqualsIgnoreCase(name, "etag")) {
        r.etag = value;
      }
    }
    pos = eol + 2;
  }
  const std::size_t body_start = head_end + 4;
  if (buf.size() < body_start + content_length) return false;
  r.body = buf.substr(body_start, content_length);
  r.size = body_start + content_length;
  *out = r;
  return true;
}

bool Matches(const Request& request, const ParsedResponse& response) {
  if (response.status != request.expect_status) return false;
  if (request.expect_status == 200) {
    return response.body == request.expect_body &&
           (request.expect_etag.empty() || response.etag == request.expect_etag);
  }
  if (request.expect_status == 304) {
    return response.body.empty() && response.etag == request.expect_etag;
  }
  return true;
}

struct LoadGenerator::Pending {
  const Request* request = nullptr;
  std::int64_t intended_ns = 0;  ///< 0: closed loop, no schedule
  std::int64_t sent_ns = 0;
  bool retried = false;
};

struct LoadGenerator::Conn {
  std::size_t index = 0;
  bool attack_slot = false;
  int fd = -1;
  bool connecting = false;
  bool half_close = false;  ///< shut down writes once `out` has drained
  std::uint32_t interest = 0;
  std::string out;
  std::size_t out_sent = 0;
  std::string in;
  std::deque<Pending> inflight;
};

LoadGenerator::LoadGenerator(const Workload& workload,
                             const RequestPools& pools, std::uint16_t port)
    : workload_(workload), pools_(pools), port_(port) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) Die("epoll_create1");
  // Wake-ups on the open-loop schedule should not be rounded to the
  // default 50us timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::size_t total =
      workload.benign_conns + (workload.attack_share > 0 ? 1 : 0);
  conns_.resize(total);  // never resized again: epoll holds Conn pointers
  for (std::size_t i = 0; i < total; ++i) {
    conns_[i].index = i;
    conns_[i].attack_slot = i >= workload.benign_conns;
    if (!conns_[i].attack_slot) Open(conns_[i], BenignSource(i));
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) CloseFd(conn);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void LoadGenerator::Open(Conn& conn, std::uint32_t source) {
  conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (conn.fd < 0) Die("socket");
  const int one = 1;
  setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Many attack sources: let connect() pick the port per 4-tuple.
  setsockopt(conn.fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof(one));
  sockaddr_in src{};
  src.sin_family = AF_INET;
  src.sin_addr.s_addr = htonl(source);
  if (bind(conn.fd, reinterpret_cast<sockaddr*>(&src), sizeof(src)) != 0) {
    Die("bind source address");
  }
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(port_);
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc = connect(conn.fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst));
  if (rc != 0 && errno != EINPROGRESS) Die("connect");
  conn.connecting = rc != 0;
  conn.interest = EPOLLIN | EPOLLOUT;
  epoll_event ev{};
  ev.events = conn.interest;
  ev.data.ptr = &conn;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) != 0) Die("epoll_ctl");
}

void LoadGenerator::CloseFd(Conn& conn) {
  if (conn.fd < 0) return;
  if (conn.attack_slot) {
    // Abort rather than close: tens of thousands of attack connections a
    // run would otherwise sit in TIME_WAIT and slow the runs that follow.
    const linger abort{1, 0};
    setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
  }
  close(conn.fd);  // also drops it from the epoll set
  conn.fd = -1;
  conn.connecting = false;
  conn.half_close = false;
  conn.out.clear();
  conn.out_sent = 0;
  conn.in.clear();
}

void LoadGenerator::Enqueue(Conn& conn, Pending pending) {
  pending.sent_ns = NowNs();
  conn.out += pending.request->raw;
  conn.inflight.push_back(pending);
}

void LoadGenerator::Flush(Conn& conn) {
  if (conn.fd < 0 || conn.connecting) return;
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_sent,
                           conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    // EAGAIN waits for EPOLLOUT; a broken connection reports EPOLLERR /
    // EOF, which OnReadable turns into a close.
    break;
  }
  if (conn.out_sent == conn.out.size()) {
    conn.out.clear();
    conn.out_sent = 0;
    if (conn.half_close) shutdown(conn.fd, SHUT_WR);
  }
  UpdateInterest(conn);
}

void LoadGenerator::UpdateInterest(Conn& conn) {
  if (conn.fd < 0) return;
  const std::uint32_t want =
      EPOLLIN | (conn.connecting || !conn.out.empty() ? EPOLLOUT : 0u);
  if (want == conn.interest) return;
  conn.interest = want;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = &conn;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void LoadGenerator::StartAttack() {
  if (workload_.attack_share <= 0) return;
  Conn& slot = conns_.back();
  if (slot.fd >= 0) return;
  Pending pending;
  if (open_ != nullptr) {
    if (attack_queue_head_ == attack_queue_.size()) return;
    pending = attack_queue_[attack_queue_head_++];
  } else {
    // Closed loop: keep attacks at the workload's share of everything sent.
    const double share = workload_.attack_share;
    if (!closed_sending_ ||
        static_cast<double>(attacks_started_) * (1 - share) >=
            static_cast<double>(benign_sent_) * share + 1) {
      return;
    }
    pending.request = &pools_.attack[next_attack_++ % pools_.attack.size()];
  }
  ++attacks_started_;
  Open(slot, AttackSource(next_attack_source_++));
  slot.half_close = pending.request->partial;
  Enqueue(slot, pending);
  Flush(slot);
}

void LoadGenerator::Complete(Conn& conn, const ParsedResponse* response) {
  const Pending pending = conn.inflight.front();
  conn.inflight.pop_front();
  const Request& req = *pending.request;
  ++tally_.attempted;
  if (req.attack) ++tally_.attacks;
  if (req.framing_reject) ++tally_.framing_rejects;
  const bool ok = response != nullptr && Matches(req, *response);
  if (ok) {
    ++correct_;
  } else {
    if (++tally_.failed <= 5) {
      std::fprintf(stderr, "perfbench: %s %s answered %d, expected %d\n",
                   req.attack ? "attack" : "benign",
                   gaa::workload::RequestKindName(req.kind),
                   response != nullptr ? response->status : 0,
                   req.expect_status);
    }
    if (response != nullptr && tally_.fatal.empty()) {
      if (req.attack && response->status >= 200 && response->status < 300) {
        tally_.fatal = std::string("attack answered 2xx: ") +
                       gaa::workload::RequestKindName(req.kind);
      } else if (!req.attack &&
                 (response->status == 401 || response->status == 403)) {
        tally_.fatal = std::string("benign request denied: ") +
                       gaa::workload::RequestKindName(req.kind);
      }
    }
  }
  if (req.attack) return;
  ++benign_done_;
  if (open_ != nullptr && ok && pending.intended_ns != 0) {
    const std::int64_t now = NowNs();
    open_->latency_us.push_back(
        static_cast<double>(now - pending.intended_ns) / 1000.0);
    open_->service_us.push_back(
        static_cast<double>(now - pending.sent_ns) / 1000.0);
  }
  if (open_ == nullptr) {
    TopUp(conn);
    StartAttack();
  }
}

void LoadGenerator::TopUp(Conn& conn) {
  const double share = workload_.attack_share;
  // Attacks take a connection each and can fall behind; hold benign
  // traffic back so the mix stays at the workload's share.
  if (closed_sending_ && conn.fd >= 0 && conn.inflight.empty() &&
      static_cast<double>(benign_sent_) * share <=
          static_cast<double>(attacks_started_ + 1) * (1 - share)) {
    ++benign_sent_;
    Enqueue(conn, Pending{&pools_.benign[next_benign_++ % pools_.benign.size()]});
  }
}

void LoadGenerator::OnReadable(Conn& conn) {
  bool eof = false;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      // A short read drained the socket; epoll reports what comes next.
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    eof = true;  // orderly close or reset
    break;
  }
  bool answered_close = false;
  std::size_t consumed = 0;
  while (!conn.inflight.empty()) {
    ParsedResponse response;
    bool malformed = false;
    if (!ParseResponse(std::string_view(conn.in).substr(consumed), &response,
                       &malformed)) {
      if (malformed) eof = true;
      break;
    }
    consumed += response.size;
    answered_close = response.close;
    Complete(conn, &response);
    if (answered_close) break;
  }
  conn.in.erase(0, consumed);
  if (conn.attack_slot) {
    // One connection per attack: done once it is answered or closed.
    if (conn.inflight.empty() || eof || answered_close) {
      if (!conn.inflight.empty()) Complete(conn, nullptr);
      CloseFd(conn);
      StartAttack();
      if (open_ == nullptr) {
        for (Conn& benign : conns_) {
          if (benign.attack_slot) continue;
          TopUp(benign);
          Flush(benign);
        }
      }
    }
    return;
  }
  if (answered_close || eof) {
    OnClosed(conn, answered_close);
  } else {
    Flush(conn);
  }
}

void LoadGenerator::OnClosed(Conn& conn, bool answered_close) {
  // A close can reset the connection and take the last answer with it
  // (the server closed with pipelined requests still unread).  Benign
  // requests are idempotent GETs, so the head of the line is retried once
  // on the new connection, as RFC 9112 section 9.3.1 allows; a second
  // loss counts as a failure.
  if (!answered_close && !conn.inflight.empty()) {
    if (conn.inflight.front().retried) {
      Complete(conn, nullptr);
    } else {
      conn.inflight.front().retried = true;
      ++tally_.retries;
    }
  }
  std::deque<Pending> resend;
  resend.swap(conn.inflight);
  ++tally_.reconnects;
  CloseFd(conn);
  Open(conn, BenignSource(conn.index));
  for (const Pending& pending : resend) Enqueue(conn, pending);
  if (resend.empty()) TopUp(conn);
  Flush(conn);
}

void LoadGenerator::OnEvent(Conn& conn, std::uint32_t events) {
  if (conn.fd < 0) return;
  if (conn.connecting && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      errno = err;
      Die("connect to the server");
    }
    conn.connecting = false;
  }
  if (events & EPOLLOUT) Flush(conn);
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP)) OnReadable(conn);
}

void LoadGenerator::Poll(std::int64_t timeout_ns) {
  if (timeout_ns < 0) timeout_ns = 0;
  timespec ts{};
  ts.tv_sec = timeout_ns / kNsPerSecond;
  ts.tv_nsec = timeout_ns % kNsPerSecond;
  epoll_event events[64];
  const int n = epoll_pwait2(epoll_fd_, events, 64, &ts, nullptr);
  if (n < 0) {
    if (errno == EINTR) return;
    Die("epoll_pwait2");
  }
  if (n == 0) return;
  const std::int64_t start = NowNs();
  for (int i = 0; i < n; ++i) {
    OnEvent(*static_cast<Conn*>(events[i].data.ptr), events[i].events);
  }
  busy_ns_ += NowNs() - start;
}

std::size_t LoadGenerator::Outstanding() const {
  std::size_t n = attack_queue_.size() - attack_queue_head_;
  for (const Conn& conn : conns_) n += conn.inflight.size();
  return n;
}

void LoadGenerator::FailOutstanding() {
  for (Conn& conn : conns_) {
    if (conn.inflight.empty()) continue;
    while (!conn.inflight.empty()) Complete(conn, nullptr);
    // Their answers may still arrive; a new connection never sees them.
    CloseFd(conn);
    if (!conn.attack_slot) Open(conn, BenignSource(conn.index));
  }
  for (; attack_queue_head_ < attack_queue_.size(); ++attack_queue_head_) {
    ++tally_.attempted;
    ++tally_.failed;
    ++tally_.attacks;
    if (attack_queue_[attack_queue_head_].request->framing_reject) {
      ++tally_.framing_rejects;
    }
  }
}

OpenLoopResult LoadGenerator::RunOpen(double seconds, std::uint64_t seed) {
  struct Arrival {
    std::int64_t offset_ns;
    const Request* request;
    std::size_t conn;
  };
  // The schedule: Poisson arrivals at the workload's rate, each request
  // drawn from the pools and assigned to a connection.
  std::vector<Arrival> schedule;
  gaa::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const double mean_gap_ns = 1e9 / workload_.open_rps;
  std::size_t benign_rr = 0;
  for (double t = 0; t < seconds * 1e9;) {
    t += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    Arrival a{static_cast<std::int64_t>(t), nullptr, 0};
    if (workload_.attack_share > 0 && rng.NextBool(workload_.attack_share)) {
      a.request = &pools_.attack[rng.NextBelow(pools_.attack.size())];
      a.conn = conns_.size() - 1;
    } else {
      a.request = &pools_.benign[rng.NextBelow(pools_.benign.size())];
      a.conn = benign_rr++ % workload_.benign_conns;
    }
    schedule.push_back(a);
  }

  OpenLoopResult result;
  result.latency_us.reserve(schedule.size());
  result.service_us.reserve(schedule.size());
  result.late_us.reserve(schedule.size());
  open_ = &result;
  tally_ = Tally{};
  attack_queue_.clear();
  attack_queue_head_ = 0;

  const std::int64_t start = NowNs() + 1'000'000;
  const std::int64_t give_up =
      start + static_cast<std::int64_t>(seconds * 1e9) + 5 * kNsPerSecond;
  std::size_t next = 0;
  for (;;) {
    const std::int64_t now = NowNs();
    while (next < schedule.size() && start + schedule[next].offset_ns <= now) {
      const Arrival& a = schedule[next++];
      const std::int64_t intended = start + a.offset_ns;
      result.late_us.push_back(static_cast<double>(now - intended) / 1000.0);
      const Pending pending{a.request, intended, 0};
      if (a.request->attack) {
        attack_queue_.push_back(pending);
        StartAttack();
      } else {
        Enqueue(conns_[a.conn], pending);
        Flush(conns_[a.conn]);
      }
    }
    if (next == schedule.size() && Outstanding() == 0) break;
    if (now > give_up) break;
    // The generator has a core of its own: poll without sleeping while a
    // send is near, so its own wake-up delay never lands in the latency.
    std::int64_t wait = next < schedule.size()
                            ? start + schedule[next].offset_ns - now
                            : 50'000'000;
    if (wait < kSpinNs) wait = 0;
    Poll(wait);
  }
  FailOutstanding();
  result.tally = tally_;
  open_ = nullptr;
  return result;
}

void LoadGenerator::BeginClosed() {
  closed_sending_ = true;
  tally_ = Tally{};
  correct_ = 0;
  benign_done_ = 0;
  benign_sent_ = 0;
  attacks_started_ = 0;
  for (Conn& conn : conns_) {
    if (conn.attack_slot) continue;
    TopUp(conn);
    Flush(conn);
  }
  StartAttack();
}

Tally LoadGenerator::EndClosed() {
  closed_sending_ = false;
  const std::int64_t give_up = NowNs() + 5 * kNsPerSecond;
  while (Outstanding() > 0 && NowNs() < give_up) Poll(10'000'000);
  FailOutstanding();
  return tally_;
}

Tally LoadGenerator::WarmUp(std::uint64_t benign_requests) {
  BeginClosed();
  const std::int64_t give_up = NowNs() + 30 * kNsPerSecond;
  while (benign_done_ < benign_requests && NowNs() < give_up) {
    Poll(10'000'000);
  }
  return EndClosed();
}

ClosedLoopResult LoadGenerator::RunClosed(
    std::uint64_t requests, double max_seconds,
    const std::function<void()>& at_edge) {
  ClosedLoopResult result;
  BeginClosed();
  at_edge();
  const std::int64_t busy_start = busy_ns_;
  const std::uint64_t correct_start = correct_;
  const std::int64_t start = NowNs();
  const std::int64_t give_up =
      start + static_cast<std::int64_t>(max_seconds * 1e9);
  // The generator has a core of its own; it polls rather than sleeps.
  while (correct_ - correct_start < requests && NowNs() < give_up) Poll(0);
  result.seconds = static_cast<double>(NowNs() - start) / 1e9;
  result.correct = correct_ - correct_start;
  result.client_busy_us = static_cast<double>(busy_ns_ - busy_start) / 1000.0;
  at_edge();
  result.tally = EndClosed();
  return result;
}

}  // namespace perfbench
