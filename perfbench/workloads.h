// The benchmark's three traffic mixes: how each one configures the server
// (policies, tenants, transport shape) and which requests it sends, each
// with the answer the response oracle expects.  Everything here is a pure
// function of the workload name and the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "integration/gaa_web_server.h"
#include "workload/trace.h"

namespace perfbench {

/// One request the load generator can send, plus the oracle's verdict.
struct Request {
  gaa::workload::RequestKind kind = gaa::workload::RequestKind::kStaticPage;
  std::string raw;
  bool attack = false;
  /// Send, then shut down the write side: the server sees a head that
  /// never completes (slowloris) and answers 400 at the transport.
  bool partial = false;
  /// Answered by the transport's framing layer, before the pipeline runs
  /// (counts in TcpServer::Stats::rejected, never reaches HandleText).
  bool framing_reject = false;
  int expect_status = 200;
  /// For 200s: the exact body (a DocTree document or CGI output).
  std::string expect_body;
  /// For static 200s and 304s: the strong validator the server must send.
  std::string expect_etag;
};

struct Workload {
  std::string name;
  /// Transport shape: shards + busy workers + the one load-generator thread
  /// stay within the box's four cores.
  std::size_t shards = 1;
  std::size_t workers = 1;
  /// Offered rate of the open-loop phase (req/s), fixed per workload.
  double open_rps = 1000;
  /// Work of the closed-loop phase, in correct answers per second of its
  /// nominal length.  Fixed work, not fixed time: the server's cost per
  /// request grows with the IDS alerts it has collected, so only a fixed
  /// request count puts every run through the same states.
  double closed_rps = 1000;
  /// Keep-alive connections carrying benign traffic; attack traffic (when
  /// attack_share > 0) gets one more connection slot of its own.
  std::size_t benign_conns = 4;
  double attack_share = 0.0;
};

/// The workload called `name`, or null.
const Workload* FindWorkload(const std::string& name);

/// Server options for `w`; `scratch_dir` receives the audit stream.
gaa::web::GaaWebServer::Options ServerOptions(const Workload& w,
                                              const std::string& scratch_dir);

/// Build and configure `w`'s server.  `eacl_load_ms` receives the time
/// spent in the policy and tenant calls.  Exits on a configuration error.
std::unique_ptr<gaa::web::GaaWebServer> BuildServer(
    const Workload& w, const std::string& scratch_dir, double* eacl_load_ms);

/// Seeded request pools.
struct RequestPools {
  std::vector<Request> benign;
  std::vector<Request> attack;  ///< empty unless attack_share > 0
};
RequestPools MakeRequests(const Workload& w, std::uint64_t seed);

/// A benign request whose correct answer proves the server is up
/// (the end point of setup_s).
Request ProbeRequest();

/// Source addresses of benign connection `n` (127.128.0.1 and up) and of
/// the `n`-th attack (127.0.0.2 and up).
std::uint32_t BenignSource(std::uint64_t n);
std::uint32_t AttackSource(std::uint64_t n);

}  // namespace perfbench
