// perfbench: the repository benchmark.  One run is kRepetitions
// repetitions, each against a fresh forked server process: set-up, warm-up,
// an open-loop phase and a closed-loop phase over loopback, with every
// response checked.  It prints one JSON line of metrics.  With --trace 1 it
// also replays the workload in-process with spans at every layer boundary
// and prints the per-layer metrics instead.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "loadgen.h"
#include "server_proc.h"
#include "traced.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Independent repetitions per run, each with a server process of its
/// own; the end-to-end metrics summarize over them.
constexpr int kRepetitions = 15;
/// Extra servers per repetition that are only set up and stopped, so
/// setup_s summarizes many set-ups spread over the whole run.
constexpr int kExtraSetups = 9;
/// Share of a repetition spent in the open loop; the rest is closed loop.
constexpr double kOpenShare = 0.4;
/// The closed-loop phase gives up after this many times its nominal length.
/// A phase cut short serves fewer requests, and the server's cost per
/// request depends on how many it has served, so the limit sits well above
/// the slowdowns seen on a shared host (up to 4x in slow spells).
constexpr double kMaxSlowdown = 5;
/// Benign answers before measuring starts.
constexpr std::uint64_t kWarmUpRequests = 2000;
/// Requests the traced run replays.
constexpr std::size_t kReplayRequests = 20000;

/// The per-layer metrics a --trace 1 run prints, with their units.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"http.transport.inline_share", "ratio"},
    {"http.transport.dispatch_wait_us.p50", "us"},
    {"http.transport.dispatch_wait_us.p99", "us"},
    {"http.transport.ring_high_watermark", "count"},
    {"http.transport.rejected", "count"},
    {"http.transport.ns", "ns"},
    {"http.parse.ns", "ns"},
    {"http.parse.allocs", "count"},
    {"http.route.ns", "ns"},
    {"http.serialize.ns", "ns"},
    {"http.server.ns", "ns"},
    {"http.server.allocs", "count"},
    {"http.server.other_ns", "ns"},
    {"integration.check.ns", "ns"},
    {"gaa.compose.ns", "ns"},
    {"gaa.authorize.ns", "ns"},
    {"gaa.exec.ns", "ns"},
    {"gaa.post.ns", "ns"},
    {"gaa.memo.hit_ratio", "ratio"},
    {"gaa.memo.insertions", "count"},
    {"gaa.share_of_server", "ratio"},
    {"eacl.load.ms", "ms"},
    {"ids.observe.ns", "ns"},
    {"ids.reports", "count"},
    {"audit.record.ns", "ns"},
    {"audit.stream.written", "count"},
    {"audit.stream.dropped", "count"},
    {"closed.throughput_rps", "req/s"},
    {"server.cpu_us_per_req", "us"},
    {"server.kernel_instructions_per_req", "count"},
    {"open.p50_us", "us"},
    {"open.p99_us", "us"},
    {"loadgen.late_us.p99", "us"},
    {"loadgen.busy_us_per_req", "us"},
    {"trace.overhead_ratio", "ratio"},
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(index), v.end());
  return v[index];
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// The traced run's request stream: the workload's mix, drawn from the
/// same pools with the same addressing the socket run uses.  Requests the
/// transport rejects while framing never reach the pipeline, so they are
/// left out.
std::vector<ReplayItem> ReplayStream(const Workload& w,
                                     const RequestPools& pools,
                                     std::uint64_t seed) {
  gaa::util::Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
  std::vector<ReplayItem> stream;
  std::uint64_t attacks = 0;
  for (std::size_t i = 0; stream.size() < kReplayRequests; ++i) {
    if (w.attack_share > 0 && rng.NextBool(w.attack_share)) {
      const Request& r = pools.attack[rng.NextBelow(pools.attack.size())];
      const std::uint32_t source = AttackSource(attacks++);
      if (!r.framing_reject) stream.push_back({&r, source});
    } else {
      stream.push_back({&pools.benign[rng.NextBelow(pools.benign.size())],
                        BenignSource(i % w.benign_conns)});
    }
  }
  return stream;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::string(value) == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1;
}

void PutMetric(std::string* out, const std::string& name, double value,
               const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name.c_str(), value, unit);
  *out += buf;
}

/// One repetition: a fresh server process, warmed up, then the open-loop
/// and the closed-loop phase.
struct Repetition {
  Tally tally;
  double throughput_rps = 0;
  double cpu_us_per_req = 0;
  double instructions_per_req = 0;  ///< negative: no counter
  double kernel_instructions_per_req = 0;  ///< negative: no counter
  std::vector<double> latency_us;  ///< open loop, benign
  double rss_mb = 0;
  bool framing_ok = false;  ///< transport rejects == framing attacks sent
  // Kept for the per-layer metrics.
  ServerSnapshot before, after;
  double service_mean_us = 0;
  double late_p99_us = 0;
  double client_busy_us_per_req = 0;
};

Repetition Run(const Workload& w, ServerProcess& server,
               const RequestPools& pools, std::uint64_t seed,
               double seconds) {
  Repetition rep;
  OpenLoopResult open;
  ClosedLoopResult closed;
  std::vector<ServerSnapshot> edges;
  {
    LoadGenerator load(w, pools, server.port());
    // Warm-up fills decision memos and buffer pools; checked, not timed.
    rep.tally.Add(load.WarmUp(kWarmUpRequests));
    rep.before = server.Mark();
    open = load.RunOpen(seconds * kOpenShare, seed);
    const double closed_seconds = seconds * (1 - kOpenShare);
    closed = load.RunClosed(
        static_cast<std::uint64_t>(w.closed_rps * closed_seconds),
        kMaxSlowdown * closed_seconds,
        [&] { edges.push_back(server.Snapshot()); });
  }
  rep.after = server.Stop();
  rep.tally.Add(open.tally);
  rep.tally.Add(closed.tally);
  const double correct = std::max(1.0, static_cast<double>(closed.correct));
  rep.throughput_rps = correct / closed.seconds;
  rep.cpu_us_per_req = (edges[1].cpu_us - edges[0].cpu_us) / correct;
  rep.instructions_per_req =
      edges[0].instructions < 0
          ? -1
          : (edges[1].instructions - edges[0].instructions) / correct;
  rep.kernel_instructions_per_req =
      edges[0].kernel_instructions < 0
          ? -1
          : (edges[1].kernel_instructions - edges[0].kernel_instructions) /
                correct;
  rep.latency_us = std::move(open.latency_us);
  rep.rss_mb = rep.after.rss_peak_mb;
  rep.framing_ok =
      rep.after.Get("tcp.rejected") - rep.before.Get("tcp.rejected") ==
      static_cast<double>(open.tally.framing_rejects +
                          closed.tally.framing_rejects);
  rep.service_mean_us = Mean(open.service_us);
  rep.late_p99_us = Quantile(open.late_us, 0.99);
  rep.client_busy_us_per_req = closed.client_busy_us / correct;
  return rep;
}

template <typename F>
double MedianOf(const std::vector<Repetition>& reps, F field) {
  std::vector<double> values;
  for (const Repetition& rep : reps) values.push_back(field(rep));
  return Median(values);
}

/// Lower quartile over repetitions of each one's latency quantile `q`.
double QuartileOf(const std::vector<Repetition>& reps, double q) {
  std::vector<double> values;
  for (const Repetition& rep : reps) values.push_back(Quantile(rep.latency_us, q));
  return Quantile(values, 0.25);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --scratch <dir>\n");
    return 2;
  }
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  InitCpuPlacement();
  PinToLoadGeneratorCpu();
  const RequestPools pools = MakeRequests(w, args.seed);
  std::vector<Repetition> reps;
  std::vector<double> setup_s, eacl_ms;
  Tally tally;
  bool correct = true;
  for (int i = 0; i < kRepetitions; ++i) {
    for (int j = 0; j < kExtraSetups; ++j) {
      ServerProcess server(w, args.scratch);
      setup_s.push_back(server.setup().setup_s);
      eacl_ms.push_back(server.setup().eacl_load_ms);
      server.Stop();
    }
    ServerProcess server(w, args.scratch);
    setup_s.push_back(server.setup().setup_s);
    eacl_ms.push_back(server.setup().eacl_load_ms);
    reps.push_back(Run(w, server, pools, args.seed, args.seconds / kRepetitions));
    const Repetition& rep = reps.back();
    tally.Add(rep.tally);
    // p99 needs at least ten samples beyond it.
    correct = correct && rep.framing_ok && rep.latency_us.size() >= 1000;
    std::fprintf(stderr,
                 "perfbench: %s seed %llu rep %d: %.0f req/s, %.1f us CPU/req, "
                 "%.0f instructions/req, "
                 "p50 %.1f us, p99 %.1f us over %zu answers (sent up to "
                 "%.1f us late at p99), %.1f MB; %llu attacks, %llu reconnects, "
                 "%llu retried\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed), i,
                 rep.throughput_rps, rep.cpu_us_per_req, rep.instructions_per_req,
                 Quantile(rep.latency_us, 0.50), Quantile(rep.latency_us, 0.99),
                 rep.latency_us.size(), rep.late_p99_us, rep.rss_mb,
                 static_cast<unsigned long long>(rep.tally.attacks),
                 static_cast<unsigned long long>(rep.tally.reconnects),
                 static_cast<unsigned long long>(rep.tally.retries));
  }
  if (!tally.fatal.empty()) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", tally.fatal.c_str());
    return 1;
  }
  correct = correct && tally.failed == 0;
  // The kernel counter is needed only for a per-layer metric, and some
  // machines refuse kernel counting to a process that may count user space.
  if (reps.front().instructions_per_req < 0 ||
      (args.trace && reps.front().kernel_instructions_per_req < 0)) {
    std::fprintf(stderr, "perfbench: no hardware instruction counter "
                         "(perf_event_open) on this machine\n");
    return 2;
  }

  std::string metrics;
  if (!args.trace) {
    PutMetric(&metrics, "instructions_per_req",
              MedianOf(reps, [](const Repetition& r) {
                return r.instructions_per_req;
              }),
              "count");
    PutMetric(&metrics, "correct_ratio",
              static_cast<double>(tally.attempted - tally.failed) /
                  static_cast<double>(tally.attempted),
              "ratio");
    // The fastest set-up: interference from outside (a stalled or slowed
    // virtual CPU, a late wake-up) only ever adds to set-up time.
    PutMetric(&metrics, "setup_s",
              *std::min_element(setup_s.begin(), setup_s.end()), "s");
    PutMetric(&metrics, "rss_mb",
              MedianOf(reps, [](const Repetition& r) { return r.rss_mb; }), "MB");
  } else {
    // Socket-side layer readings come from the last repetition.
    const Repetition& last = reps.back();
    auto delta = [&](const char* key) {
      return last.after.Get(key) - last.before.Get(key);
    };
    const std::string dump = args.scratch + "/spans-" + w.name + "-" +
                             std::to_string(args.seed) + ".tsv";
    RestoreCpus();
    bool consistent = false;
    std::map<std::string, double> layers =
        RunTraced(w, ReplayStream(w, pools, args.seed), args.scratch, dump,
                  &consistent);
    correct = correct && consistent;
    const double requests = delta("tcp.requests");
    const double hits = delta("gaa_decision_cache_hits_total");
    const double lookups = hits + delta("gaa_decision_cache_misses_total");
    layers["http.transport.inline_share"] =
        requests > 0 ? delta("tcp.inline_served") / requests : 0;
    layers["http.transport.dispatch_wait_us.p50"] = last.after.dispatch_p50_us;
    layers["http.transport.dispatch_wait_us.p99"] = last.after.dispatch_p99_us;
    layers["http.transport.ring_high_watermark"] =
        last.after.Get("tcp.ring_high_watermark");
    layers["http.transport.rejected"] = delta("tcp.rejected");
    layers["http.transport.ns"] =
        last.service_mean_us * 1000.0 - layers["http.server.ns"];
    layers["gaa.memo.hit_ratio"] = lookups > 0 ? hits / lookups : 0;
    layers["gaa.memo.insertions"] = delta("gaa_decision_cache_insertions_total");
    layers["eacl.load.ms"] = Median(eacl_ms);
    layers["ids.reports"] = delta("ids_reports_total");
    layers["audit.stream.written"] = delta("audit_stream_written_total");
    layers["audit.stream.dropped"] = delta("audit_stream_dropped_total");
    // Open-loop latency is the lower quartile over repetitions of each
    // one's percentile: interference from outside (a stalled or slowed
    // virtual CPU) only ever adds latency and comes in spells of seconds.
    layers["closed.throughput_rps"] =
        MedianOf(reps, [](const Repetition& r) { return r.throughput_rps; });
    layers["server.cpu_us_per_req"] =
        MedianOf(reps, [](const Repetition& r) { return r.cpu_us_per_req; });
    layers["server.kernel_instructions_per_req"] =
        MedianOf(reps, [](const Repetition& r) {
          return r.kernel_instructions_per_req;
        });
    layers["open.p50_us"] = QuartileOf(reps, 0.50);
    layers["open.p99_us"] = QuartileOf(reps, 0.99);
    layers["loadgen.late_us.p99"] = last.late_p99_us;
    layers["loadgen.busy_us_per_req"] = last.client_busy_us_per_req;
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = layers.find(name);
      if (it == layers.end()) {
        std::fprintf(stderr, "perfbench: no value for %s\n", name);
        return 2;
      }
      PutMetric(&metrics, name, it->second, unit);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
