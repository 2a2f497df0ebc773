#include "server_proc.h"

#include <fcntl.h>
#include <linux/perf_event.h>
#include <sched.h>
#include <sys/syscall.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "http/tcp_server.h"
#include "loadgen.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace perfbench {

namespace {

using gaa::telemetry::Histogram;
using gaa::telemetry::MetricKind;

const char* const kCounterFamilies[] = {
    "gaa_decision_cache_hits_total",  "gaa_decision_cache_misses_total",
    "gaa_decision_cache_insertions_total", "ids_reports_total",
    "audit_stream_written_total",     "audit_stream_dropped_total",
};

bool WriteAll(int fd, const std::string& text) {
  for (std::size_t done = 0; done < text.size();) {
    const ssize_t n = write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until the reply ends with "end\n"; empty on EOF.
std::string ReadReply(int fd) {
  std::string reply;
  char buf[4096];
  while (reply.size() < 4 || reply.compare(reply.size() - 4, 4, "end\n") != 0) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    reply.append(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

double ResidentMb(const char* field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + std::strlen(field), nullptr) / 1024.0;
    }
  }
  return 0;
}

/// transport_dispatch_delay_us, merged over shards.
Histogram::Snapshot DispatchDelay(gaa::telemetry::MetricRegistry& registry) {
  Histogram::Snapshot merged;
  for (const auto& entry : registry.List()) {
    if (entry.kind != MetricKind::kHistogram ||
        entry.name != "transport_dispatch_delay_us") {
      continue;
    }
    Histogram::Snapshot snap = entry.histogram->TakeSnapshot();
    if (merged.counts.empty()) {
      merged = snap;
      continue;
    }
    for (std::size_t i = 0; i < merged.counts.size(); ++i) {
      merged.counts[i] += snap.counts[i];
    }
    merged.count += snap.count;
    merged.sum += snap.sum;
    merged.max = std::max(merged.max, snap.max);
  }
  return merged;
}

/// One snapshot as "key value" lines, closed by "end".
std::string Render(gaa::web::GaaWebServer& server,
                   const gaa::http::TcpServer& tcp,
                   const Histogram::Snapshot& mark, double inherited_mb,
                   int instructions_fd, int kernel_instructions_fd) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_us =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e6 +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  std::ostringstream out;
  out.precision(17);
  out << "cpu_us " << cpu_us << "\n";
  std::uint64_t instructions = 0;
  if (instructions_fd >= 0 &&
      read(instructions_fd, &instructions, sizeof(instructions)) ==
          static_cast<ssize_t>(sizeof(instructions))) {
    out << "instructions " << instructions << "\n";
  }
  if (kernel_instructions_fd >= 0 &&
      read(kernel_instructions_fd, &instructions, sizeof(instructions)) ==
          static_cast<ssize_t>(sizeof(instructions))) {
    out << "kernel_instructions " << instructions << "\n";
  }
  out << "rss_peak_mb " << ResidentMb("VmHWM:") - inherited_mb << "\n";
  const gaa::http::TcpServer::Stats stats = tcp.stats();
  out << "tcp.requests " << stats.requests << "\n";
  out << "tcp.inline_served " << stats.inline_served << "\n";
  out << "tcp.rejected " << stats.rejected << "\n";
  out << "tcp.ring_high_watermark " << stats.ring_high_watermark << "\n";
  auto& registry = server.telemetry().registry();
  for (const char* family : kCounterFamilies) {
    std::uint64_t sum = 0;
    for (const auto& entry : registry.List()) {
      if (entry.kind == MetricKind::kCounter && entry.name == family) {
        sum += entry.counter->Value();
      }
    }
    out << family << " " << sum << "\n";
  }
  Histogram::Snapshot window = DispatchDelay(registry);
  if (!mark.counts.empty() && mark.counts.size() == window.counts.size()) {
    for (std::size_t i = 0; i < window.counts.size(); ++i) {
      window.counts[i] -= mark.counts[i];
    }
    window.count -= mark.count;
    window.sum -= mark.sum;
  }
  out << "dispatch_p50_us " << (window.count ? window.Quantile(0.50) : 0.0)
      << "\n";
  out << "dispatch_p99_us " << (window.count ? window.Quantile(0.99) : 0.0)
      << "\n";
  out << "end\n";
  return out.str();
}

/// The CPUs the benchmark started with, and the one the load generator
/// takes (-1: too few CPUs to split).
cpu_set_t all_cpus;
int generator_cpu = -1;

void PinToServerCpus() {
  if (generator_cpu < 0) return;
  cpu_set_t cpus = all_cpus;
  CPU_CLR(generator_cpu, &cpus);
  sched_setaffinity(0, sizeof(cpus), &cpus);
}

/// A counter of the instructions this process retires in user space (or,
/// with `kernel`, in the kernel on its behalf: system calls, the loopback
/// TCP stack, futex waits and wakes), in all its threads: threads created
/// after it opens inherit it, and a read sums them.  -1 when the machine
/// offers no such counter.
int OpenInstructionCounter(bool kernel) {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.exclude_user = kernel ? 1 : 0;
  attr.exclude_kernel = kernel ? 0 : 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1,
                                  PERF_FLAG_FD_CLOEXEC));
}

/// The child's whole life: set up, report, then serve commands until told
/// to stop (or until the parent goes away).
int ChildMain(const Workload& w, const std::string& scratch_dir,
              int command_fd, int reply_fd) {
  PinToServerCpus();
  // Opened before the server starts any thread, so every thread counts.
  const int instructions_fd = OpenInstructionCounter(false);
  const int kernel_instructions_fd = OpenInstructionCounter(true);
  // Pages shared with the parent at fork are not the server's.
  const double inherited_mb = ResidentMb("VmRSS:");
  gaa::util::Stopwatch watch;
  double eacl_load_ms = 0;
  std::unique_ptr<gaa::web::GaaWebServer> server =
      BuildServer(w, scratch_dir, &eacl_load_ms);
  gaa::http::TcpServer::Options options;
  options.reactor_shards = w.shards;
  options.worker_threads = w.workers;
  options.tick_interval_ms = 100;
  gaa::http::TcpServer tcp(&server->server(), options);
  server->WireIdsTick(&tcp);
  if (!tcp.Start().ok()) {
    std::fprintf(stderr, "perfbench: transport did not start\n");
    return 3;
  }
  const Request probe = ProbeRequest();
  gaa::http::TcpClient client(tcp.port());
  const auto answer = client.RoundTrip(probe.raw);
  ParsedResponse response;
  bool malformed = false;
  if (!answer.ok() ||
      !ParseResponse(answer.value(), &response, &malformed) ||
      !Matches(probe, response)) {
    std::fprintf(stderr, "perfbench: probe request not answered correctly\n");
    return 3;
  }
  client.Close();
  const double setup_s = watch.ElapsedMs() / 1000.0;

  std::ostringstream setup;
  setup.precision(17);
  setup << "setup_s " << setup_s << "\neacl_load_ms " << eacl_load_ms
        << "\nport " << tcp.port() << "\nend\n";
  if (!WriteAll(reply_fd, setup.str())) return 3;

  Histogram::Snapshot mark;
  auto render = [&] {
    return Render(*server, tcp, mark, inherited_mb, instructions_fd,
                  kernel_instructions_fd);
  };
  for (;;) {
    char command = 0;
    const ssize_t n = read(command_fd, &command, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || command == 'Q') break;
    if (command == 'M') mark = DispatchDelay(server->telemetry().registry());
    if (!WriteAll(reply_fd, render())) break;
  }
  tcp.Stop();
  server->audit_log().Flush();
  WriteAll(reply_fd, render());
  return 0;
}

std::map<std::string, double> ParseReply(const std::string& reply) {
  std::map<std::string, double> values;
  std::istringstream in(reply);
  std::string key;
  double value = 0;
  while (in >> key && key != "end" && in >> value) values[key] = value;
  return values;
}

}  // namespace

double ServerSnapshot::Get(const std::string& key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

ServerProcess::ServerProcess(const Workload& w,
                             const std::string& scratch_dir) {
  int command[2], reply[2];
  if (pipe2(command, O_CLOEXEC) != 0 || pipe2(reply, O_CLOEXEC) != 0) {
    std::perror("perfbench: pipe");
    std::exit(2);
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_ = fork();
  if (pid_ < 0) {
    std::perror("perfbench: fork");
    std::exit(2);
  }
  if (pid_ == 0) {
    close(command[1]);
    close(reply[0]);
    _exit(ChildMain(w, scratch_dir, command[0], reply[1]));
  }
  close(command[0]);
  close(reply[1]);
  command_fd_ = command[1];
  reply_fd_ = reply[0];
  const std::map<std::string, double> values = ParseReply(ReadReply(reply_fd_));
  if (values.count("setup_s") == 0) {
    waitpid(pid_, nullptr, 0);
    std::fprintf(stderr, "perfbench: server set-up failed\n");
    std::exit(2);
  }
  port_ = static_cast<std::uint16_t>(values.at("port"));
  setup_ = SetupSample{values.at("setup_s"), values.at("eacl_load_ms")};
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Stop();
}

ServerSnapshot ServerProcess::Request(char command) {
  ServerSnapshot snap;
  if (WriteAll(command_fd_, std::string(1, command))) {
    snap.values = ParseReply(ReadReply(reply_fd_));
  }
  if (snap.values.empty()) {
    std::fprintf(stderr, "perfbench: server process is gone\n");
    std::exit(2);
  }
  snap.cpu_us = snap.Get("cpu_us");
  snap.instructions = snap.values.count("instructions") ? snap.Get("instructions") : -1;
  snap.kernel_instructions = snap.values.count("kernel_instructions")
                                 ? snap.Get("kernel_instructions")
                                 : -1;
  snap.rss_peak_mb = snap.Get("rss_peak_mb");
  snap.dispatch_p50_us = snap.Get("dispatch_p50_us");
  snap.dispatch_p99_us = snap.Get("dispatch_p99_us");
  return snap;
}

ServerSnapshot ServerProcess::Mark() { return Request('M'); }

ServerSnapshot ServerProcess::Snapshot() { return Request('S'); }

ServerSnapshot ServerProcess::Stop() {
  ServerSnapshot snap = Request('Q');
  close(command_fd_);
  close(reply_fd_);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: server process exited abnormally\n");
    std::exit(2);
  }
  return snap;
}

void InitCpuPlacement() {
  CPU_ZERO(&all_cpus);
  if (sched_getaffinity(0, sizeof(all_cpus), &all_cpus) != 0) return;
  if (CPU_COUNT(&all_cpus) < 2) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &all_cpus)) {
      generator_cpu = cpu;
      return;
    }
  }
}

void PinToLoadGeneratorCpu() {
  if (generator_cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(generator_cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void RestoreCpus() {
  if (generator_cpu >= 0) sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
}

}  // namespace perfbench
