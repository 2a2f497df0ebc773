#include "workloads.h"

#include <cstdio>
#include <cstdlib>

#include "http/doc_tree.h"
#include "http/request.h"
#include "http/static_plane.h"
#include "util/clock.h"
#include "util/rng.h"

namespace perfbench {

namespace gw = gaa::workload;
using gaa::web::GaaWebServer;

namespace {

// Rates measured on a 4-vCPU x86-64 virtual machine (see README.md).  The
// open-loop rates were fixed at about half the closed-loop capacity of an
// early design of this benchmark and are about a fifth of what the final
// design measures; closed_rps makes each closed-loop phase take about its
// nominal time there.
const Workload kWorkloads[] = {
    {.name = "static_memo", .shards = 3, .workers = 3, .open_rps = 8500,
     .closed_rps = 35000,     .benign_conns = 4, .attack_share = 0.0},
    {.name = "paper_benign", .shards = 1, .workers = 2, .open_rps = 7500,
     .closed_rps = 38000,     .benign_conns = 4, .attack_share = 0.0},
    {.name = "attack_mix", .shards = 1, .workers = 2, .open_rps = 8000,
     .closed_rps = 30000,     .benign_conns = 3, .attack_share = 0.1},
};

// Paper section 7.1: lockdown at threat level high (system-wide, narrow
// composition) and authenticated-only access above low (local).
const char* kLockdownSystem = R"(
eacl_mode 1
neg_access_right * *
pre_cond_system_threat_level local =high
)";

const char* kLockdownLocal = R"(
pos_access_right apache *
pre_cond_system_threat_level local >low
pre_cond_accessid USER apache *
pos_access_right apache *
pre_cond_system_threat_level local =low
)";

// Paper section 7.2: the BadGuys blacklist (system-wide).
const char* kIntrusionSystem = R"(
eacl_mode 1
neg_access_right * *
pre_cond_accessid GROUP local BadGuys
)";

// Paper section 8: the section 7.1 and 7.2 local policies in one list.
// The section 7.2 signature entry, which notifies the administrator and
// blacklists the source, comes first; the section 7.1 entries take the place
// of the section 7.2 fall-through grant, which would otherwise end the
// list before them.
const char* kPaperLocal = R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
pre_cond_system_threat_level local >low
pre_cond_accessid USER apache *
pos_access_right apache *
pre_cond_system_threat_level local =low
)";

// The section 7.2 local policy with its signature list widened to the
// attack corpus attack_mix sends (NIMDA percent URLs, the many-slashes DoS,
// cmd.exe, over-long CGI input); every hit notifies and blacklists.
const char* kIntrusionLocalWidened = R"(
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *%* *///////////////////* *cmd.exe*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:ip
neg_access_right apache *
pre_cond_expr local cgi_input_length >1000
rr_cond_notify local on:failure/sysadmin/info:overflow
rr_cond_update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
)";

// static_memo's tenant hosts; "localhost" lands in the default namespace.
const char* const kHosts[] = {"localhost", "alpha.example", "beta.example"};
const char* const kTenants[] = {"alpha", "beta"};

void Check(const gaa::util::VoidResult& result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 result.error().ToString().c_str());
    std::exit(2);
  }
}

bool IsStaticMemo(const Workload& w) { return w.name == "static_memo"; }
bool IsAttackMix(const Workload& w) { return w.name == "attack_mix"; }

std::string TargetOf(const std::string& raw) {
  const std::size_t start = raw.find(' ') + 1;
  return raw.substr(start, raw.find(' ', start) - start);
}

/// `raw` with its Host header replaced and `extra` header lines added.
std::string Rewrite(const std::string& raw, const std::string& host,
                    const std::string& extra) {
  const std::size_t line_end = raw.find("\r\n") + 2;
  const std::size_t head_end = raw.find("\r\n\r\n") + 2;
  std::string out = raw.substr(0, line_end);
  out += "Host: " + host + "\r\n";
  for (std::size_t pos = line_end; pos < head_end;) {
    const std::size_t next = raw.find("\r\n", pos) + 2;
    if (raw.compare(pos, 5, "Host:") != 0) out.append(raw, pos, next - pos);
    pos = next;
  }
  out += extra;
  out += "\r\n";
  return out;
}

/// Attach the oracle's expectation for a benign request.
void ExpectBenign(const gaa::http::DocTree& tree, Request* r) {
  const std::string target = TargetOf(r->raw);
  const std::size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  r->expect_status = 200;
  if (const gaa::http::Document* doc = tree.FindDocument(path)) {
    r->expect_body = doc->content;
    r->expect_etag = gaa::http::ComputeEtag(doc->content);
  } else if (const gaa::http::CgiScript* cgi = tree.FindCgi(path)) {
    r->expect_body =
        (*cgi)(q == std::string::npos ? std::string() : target.substr(q + 1))
            .output;
  } else {
    std::fprintf(stderr, "perfbench: no document for %s\n", path.c_str());
    std::exit(2);
  }
}

/// What the server answers each attack kind under attack_mix's policies,
/// from a source address that has not attacked before.
void ExpectAttack(gw::RequestKind kind, Request* r) {
  r->attack = true;
  switch (kind) {
    case gw::RequestKind::kCgiProbe:
    case gw::RequestKind::kNimdaPercent:
    case gw::RequestKind::kDosSlashes:
    case gw::RequestKind::kOverflowInput:
      r->expect_status = 403;  // signature / input-length policy entries
      break;
    case gw::RequestKind::kPathTraversal:
      r->expect_status = 400;  // parser: dot segments escaping the root
      break;
    case gw::RequestKind::kHeaderFlood:
      r->expect_status = 413;  // parser: header count past the limit
      break;
    case gw::RequestKind::kSmugglingProbe:
      r->expect_status = 400;  // framing: conflicting Content-Length
      r->framing_reject = true;
      break;
    case gw::RequestKind::kSlowHeaders:
      r->expect_status = 400;  // framing: head truncated by EOF
      r->framing_reject = true;
      r->partial = true;
      break;
    default:
      std::fprintf(stderr, "perfbench: attack kind %s not in the corpus\n",
                   gw::RequestKindName(kind));
      std::exit(2);
  }
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

GaaWebServer::Options ServerOptions(const Workload& w,
                                    const std::string& scratch_dir) {
  GaaWebServer::Options options;
  options.use_real_clock = true;
  // The program's own tracer stays off: with it on, the transport would
  // serve traced requests on a different tier.
  options.tuning.trace_sample_period = 0;
  if (IsAttackMix(w)) {
    options.asynchronous_notification = true;
    // A short simulated SMTP hand-off keeps the queued notifier ahead of
    // the attack rate.  The notifier's queue has no bound, so at the
    // default 47 ms (the paper's mail cost) it would grow all run: memory
    // would measure the backlog, and shutdown would wait for it to drain.
    options.notification_latency_us = 200;
    options.audit_stream.path = scratch_dir + "/audit.jsonl";
  } else {
    // Benign-only traffic at full speed from a few addresses looks like a
    // flood to the streaming IDS; pin the threat level as the paper's
    // section 8 measurement did, or lockdown would deny the benign load.
    options.threat.medium_score = 1e18;
    options.threat.high_score = 1e18;
  }
  return options;
}

std::unique_ptr<GaaWebServer> BuildServer(const Workload& w,
                                          const std::string& scratch_dir,
                                          double* eacl_load_ms) {
  auto server = std::make_unique<GaaWebServer>(gaa::http::DocTree::DemoSite(),
                                               ServerOptions(w, scratch_dir));
  server->AddUser("alice", "wonder");
  gaa::util::Stopwatch watch;
  if (IsStaticMemo(w)) {
    Check(server->AddSystemPolicy(kLockdownSystem), "AddSystemPolicy");
    Check(server->SetLocalPolicy("/", kLockdownLocal), "SetLocalPolicy");
    for (std::size_t i = 0; i < std::size(kTenants); ++i) {
      Check(server->AddTenant(kTenants[i], kHosts[i + 1]), "AddTenant");
      Check(server->SetTenantLocalPolicy(kTenants[i], "/", kLockdownLocal),
            "SetTenantLocalPolicy");
    }
  } else if (IsAttackMix(w)) {
    Check(server->AddSystemPolicy(kIntrusionSystem), "AddSystemPolicy");
    Check(server->SetLocalPolicy("/", kIntrusionLocalWidened),
          "SetLocalPolicy");
  } else {
    Check(server->AddSystemPolicy(kLockdownSystem), "AddSystemPolicy");
    Check(server->AddSystemPolicy(kIntrusionSystem), "AddSystemPolicy");
    Check(server->SetLocalPolicy("/", kPaperLocal), "SetLocalPolicy");
  }
  *eacl_load_ms = watch.ElapsedMs();
  return server;
}

RequestPools MakeRequests(const Workload& w, std::uint64_t seed) {
  constexpr std::size_t kPoolSize = 4096;
  const gaa::http::DocTree tree = gaa::http::DocTree::DemoSite();
  gw::TraceOptions trace_options;
  trace_options.seed = seed;
  gw::TraceGenerator generator(trace_options);
  gaa::util::Rng rng(seed ^ 0x5eedULL);

  RequestPools pools;
  pools.benign.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    Request r;
    if (IsStaticMemo(w)) {
      r.kind = gw::RequestKind::kStaticPage;
      const std::string raw = generator.Make(r.kind).raw;
      const bool conditional = rng.NextBool(0.5);
      const std::string host = kHosts[rng.NextBelow(std::size(kHosts))];
      r.raw = Rewrite(raw, host, "");
      ExpectBenign(tree, &r);
      if (conditional) {
        r.raw = Rewrite(raw, host, "If-None-Match: " + r.expect_etag + "\r\n");
        r.expect_status = 304;
        r.expect_body.clear();
      }
    } else {
      // Paper section 8 traffic: static pages, search CGI with query
      // input, and Basic-authenticated /private pages.
      const double pick = rng.NextDouble();
      r.kind = pick < 0.5   ? gw::RequestKind::kStaticPage
               : pick < 0.8 ? gw::RequestKind::kSearchCgi
                            : gw::RequestKind::kPrivatePage;
      r.raw = generator.Make(r.kind).raw;
      ExpectBenign(tree, &r);
    }
    pools.benign.push_back(std::move(r));
  }

  if (w.attack_share > 0) {
    const gw::RequestKind kAttacks[] = {
        gw::RequestKind::kCgiProbe,       gw::RequestKind::kNimdaPercent,
        gw::RequestKind::kDosSlashes,     gw::RequestKind::kOverflowInput,
        gw::RequestKind::kSmugglingProbe, gw::RequestKind::kPathTraversal,
        gw::RequestKind::kHeaderFlood,    gw::RequestKind::kSlowHeaders};
    pools.attack.reserve(kPoolSize);
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      Request r;
      r.kind = kAttacks[rng.NextBelow(std::size(kAttacks))];
      r.raw = generator.Make(r.kind).raw;
      ExpectAttack(r.kind, &r);
      pools.attack.push_back(std::move(r));
    }
  }
  return pools;
}

Request ProbeRequest() {
  Request r;
  r.raw = gaa::http::BuildGetRequest("/index.html");
  ExpectBenign(gaa::http::DocTree::DemoSite(), &r);
  return r;
}

std::uint32_t BenignSource(std::uint64_t n) {
  return 0x7F800001u + static_cast<std::uint32_t>(n % 0x7FFFFE);  // 127.128/9
}

std::uint32_t AttackSource(std::uint64_t n) {
  return 0x7F000002u + static_cast<std::uint32_t>(n % 0x7FFFFE);  // 127.0/9
}

}  // namespace perfbench
