// The server under test runs in a forked child process, so its CPU time and
// memory are measured apart from the load generator's.  The parent drives
// it over a pair of pipes: mark, snapshot, stop.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

/// One set-up: GaaWebServer construction, policy load and compile,
/// listener start, up to the first correct response over loopback.
struct SetupSample {
  double setup_s = 0;
  double eacl_load_ms = 0;  ///< the policy and tenant calls alone
};

/// Server-side readings; counters are cumulative since the server started.
struct ServerSnapshot {
  double cpu_us = 0;  ///< user + system time of the whole server process
  /// User-space instructions retired by the server process (-1: the
  /// machine has no instruction counter).
  double instructions = -1;
  /// Kernel instructions retired on the server process's behalf (-1: no
  /// counter, or not permitted).
  double kernel_instructions = -1;
  /// Peak resident memory the server added to the forked process image.
  double rss_peak_mb = 0;
  /// TcpServer::stats() fields ("tcp.requests", ...) and registry counter
  /// families summed over labels ("ids_reports_total", ...).
  std::map<std::string, double> values;
  /// transport_dispatch_delay_us quantiles over the samples since Mark().
  double dispatch_p50_us = 0;
  double dispatch_p99_us = 0;

  double Get(const std::string& key) const;
};

class ServerProcess {
 public:
  /// Fork the child, which builds `w`'s server, starts the transport and
  /// answers one probe request.  Exits the benchmark (code 2) when the
  /// child cannot serve.  The calling process must have no threads.
  ServerProcess(const Workload& w, const std::string& scratch_dir);
  /// Stops the child if Stop() was not called.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  const SetupSample& setup() const { return setup_; }

  /// Start a new histogram window for the dispatch-delay quantiles, and
  /// take a snapshot.
  ServerSnapshot Mark();
  ServerSnapshot Snapshot();
  /// Stop the transport, take the final snapshot and reap the child.
  ServerSnapshot Stop();

 private:
  ServerSnapshot Request(char command);

  pid_t pid_ = -1;
  int command_fd_ = -1;
  int reply_fd_ = -1;
  std::uint16_t port_ = 0;
  SetupSample setup_;
};

/// CPU placement: server processes run on every CPU the benchmark may use
/// but the highest, the load generator on the highest alone, so the two
/// never compete for a core.  Call InitCpuPlacement() before anything
/// else; with fewer than two CPUs nothing is pinned.
void InitCpuPlacement();
void PinToLoadGeneratorCpu();
void RestoreCpus();

}  // namespace perfbench
