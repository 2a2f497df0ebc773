#include "workload/trace.h"

#include <algorithm>

#include "http/request.h"
#include "util/strings.h"

namespace gaa::workload {

namespace {

const char* const kStaticPages[] = {"/index.html", "/docs/guide.html",
                                    "/docs/api.html"};
const char* const kSearchTerms[] = {"apache", "policy", "gaa", "intrusion",
                                    "acl", "report", "status"};
const char* const kUnknownProbes[] = {
    "/cgi-bin/count.cgi",   "/cgi-bin/websendmail", "/cgi-bin/handler",
    "/cgi-bin/campas",      "/cgi-bin/view-source", "/cgi-bin/aglimpse",
    "/cgi-bin/webdist.cgi", "/cgi-bin/faxsurvey"};

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kStaticPage:
      return "static_page";
    case RequestKind::kSearchCgi:
      return "search_cgi";
    case RequestKind::kPrivatePage:
      return "private_page";
    case RequestKind::kCgiProbe:
      return "cgi_probe";
    case RequestKind::kDosSlashes:
      return "dos_slashes";
    case RequestKind::kNimdaPercent:
      return "nimda_percent";
    case RequestKind::kOverflowInput:
      return "overflow_input";
    case RequestKind::kPasswordGuess:
      return "password_guess";
    case RequestKind::kIllFormed:
      return "ill_formed";
    case RequestKind::kUnknownProbe:
      return "unknown_probe";
    case RequestKind::kSlowHeaders:
      return "slow_headers";
    case RequestKind::kSmugglingProbe:
      return "smuggling_probe";
    case RequestKind::kPathTraversal:
      return "path_traversal";
    case RequestKind::kHeaderFlood:
      return "header_flood";
    case RequestKind::kCachePoison:
      return "cache_poison";
  }
  return "?";
}

bool IsAttackKind(RequestKind kind) {
  switch (kind) {
    case RequestKind::kStaticPage:
    case RequestKind::kSearchCgi:
    case RequestKind::kPrivatePage:
      return false;
    default:
      return true;
  }
}

bool IsPartialRequestKind(RequestKind kind) {
  return kind == RequestKind::kSlowHeaders;
}

TraceGenerator::TraceGenerator(TraceOptions options)
    : options_(options), rng_(options.seed) {}

std::string TraceGenerator::BenignIp() {
  // 10.0.x.y pool.
  auto idx = rng_.NextBelow(options_.benign_clients);
  return "10.0." + std::to_string(idx / 250) + "." +
         std::to_string(1 + idx % 250);
}

std::string TraceGenerator::AttackerIp() {
  auto idx = rng_.NextBelow(options_.attacker_clients);
  return "203.0.113." + std::to_string(1 + idx % 250);
}

TraceRequest TraceGenerator::Make(RequestKind kind) {
  TraceRequest out;
  out.kind = kind;
  out.label = RequestKindName(kind);
  out.client_ip = IsAttackKind(kind) ? AttackerIp() : BenignIp();

  switch (kind) {
    case RequestKind::kStaticPage: {
      const char* page = kStaticPages[rng_.NextBelow(std::size(kStaticPages))];
      out.raw = http::BuildGetRequest(page);
      break;
    }
    case RequestKind::kSearchCgi: {
      const char* term = kSearchTerms[rng_.NextBelow(std::size(kSearchTerms))];
      out.raw = http::BuildGetRequest(std::string("/cgi-bin/search?q=") + term);
      break;
    }
    case RequestKind::kPrivatePage: {
      out.raw = http::BuildGetRequest(
          "/private/report.html",
          {{"Authorization",
            "Basic " + util::Base64Encode(options_.user + ":" +
                                          options_.password)}});
      break;
    }
    case RequestKind::kCgiProbe: {
      // Alternate between the two §7.2 probe targets; phf carries the
      // classic newline meta-character payload.
      if (rng_.NextBool(0.5)) {
        out.raw = http::BuildGetRequest(
            "/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd");
        out.label = "cgi_probe:phf";
      } else {
        out.raw = http::BuildGetRequest("/cgi-bin/test-cgi?*");
        out.label = "cgi_probe:test-cgi";
      }
      break;
    }
    case RequestKind::kDosSlashes: {
      std::string target = "/";
      target.append(60 + rng_.NextBelow(60), '/');
      out.raw = http::BuildGetRequest(target);
      break;
    }
    case RequestKind::kNimdaPercent: {
      out.raw = http::BuildGetRequest(
          "/scripts/..%255c..%255cwinnt/system32/cmd.exe?/c+dir");
      break;
    }
    case RequestKind::kOverflowInput: {
      std::string query(1001 + rng_.NextBelow(2000), 'A');
      out.raw = http::BuildGetRequest("/cgi-bin/search?q=" + query);
      break;
    }
    case RequestKind::kPasswordGuess: {
      static const char* const kGuesses[] = {"123456", "password", "letmein",
                                             "admin", "root"};
      out.raw = http::BuildGetRequest(
          "/private/report.html",
          {{"Authorization",
            "Basic " + util::Base64Encode(
                           options_.user + ":" +
                           kGuesses[rng_.NextBelow(std::size(kGuesses))])}});
      break;
    }
    case RequestKind::kIllFormed: {
      switch (rng_.NextBelow(3)) {
        case 0:
          out.raw = "GEX /index.html HTTP/1.1\r\n\r\n";
          break;
        case 1:
          out.raw = "GET /index.html\r\n\r\n";  // missing version
          break;
        default:
          out.raw = std::string("GET /\x01index HTTP/1.1\r\n\r\n");
          break;
      }
      break;
    }
    case RequestKind::kUnknownProbe: {
      const char* probe =
          kUnknownProbes[rng_.NextBelow(std::size(kUnknownProbes))];
      out.raw = http::BuildGetRequest(probe);
      break;
    }
    case RequestKind::kSlowHeaders: {
      // Slowloris: a plausible head that never reaches the blank line.
      // IsPartialRequestKind() tells the driver to send this and close —
      // the server diagnoses a truncated request.
      out.raw = "GET /index.html HTTP/1.1\r\nHost: localhost\r\nX-Slow-" +
                std::to_string(rng_.NextBelow(1000)) + ": dribble\r\n";
      break;
    }
    case RequestKind::kSmugglingProbe: {
      // Conflicting framing headers: two Content-Lengths that disagree,
      // either both non-zero (the classic CL.CL desync probe) or one zero.
      if (rng_.NextBool(0.5)) {
        out.raw =
            "POST /cgi-bin/search HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Length: 4\r\nContent-Length: 11\r\n\r\nq=aa";
        out.label = "smuggling_probe:cl_cl";
      } else {
        out.raw =
            "POST /cgi-bin/search HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Length: 4\r\nContent-Length: 0\r\n\r\nq=aa";
        out.label = "smuggling_probe:cl_zero";
      }
      break;
    }
    case RequestKind::kPathTraversal: {
      // Percent-encoded dot segments that decode to real ".." runs.
      static const char* const kTraversals[] = {
          "/docs/%2e%2e/%2e%2e/etc/passwd",
          "/%2e%2e/%2e%2e/%2e%2e/etc/shadow",
          "/docs/..%2f..%2fprivate/report.html"};
      out.raw = http::BuildGetRequest(
          kTraversals[rng_.NextBelow(std::size(kTraversals))]);
      break;
    }
    case RequestKind::kHeaderFlood: {
      // The §1 DoS generalized: blow past ParseLimits::max_headers.
      std::string raw = "GET /index.html HTTP/1.1\r\nHost: localhost\r\n";
      const std::size_t n = 120 + rng_.NextBelow(80);
      for (std::size_t i = 0; i < n; ++i) {
        raw += "X-Flood-" + std::to_string(i) + ": x\r\n";
      }
      raw += "\r\n";
      out.raw = std::move(raw);
      break;
    }
    case RequestKind::kCachePoison: {
      // Two conflicting Host headers: whichever one an upstream cache keys
      // on, the other poisons.  The parser rejects the conflict outright.
      out.raw =
          "GET /index.html HTTP/1.1\r\nHost: localhost\r\n"
          "Host: evil.example\r\n\r\n";
      break;
    }
  }
  return out;
}

std::vector<TraceRequest> TraceGenerator::Generate() {
  std::vector<TraceRequest> trace;
  trace.reserve(options_.count);
  const RequestKind benign[] = {RequestKind::kStaticPage,
                                RequestKind::kSearchCgi,
                                RequestKind::kPrivatePage};
  const RequestKind attacks[] = {
      RequestKind::kCgiProbe,      RequestKind::kDosSlashes,
      RequestKind::kNimdaPercent,  RequestKind::kOverflowInput,
      RequestKind::kPasswordGuess, RequestKind::kIllFormed};
  for (std::size_t i = 0; i < options_.count; ++i) {
    bool attack = rng_.NextBool(options_.attack_fraction);
    RequestKind kind =
        attack ? attacks[rng_.NextBelow(std::size(attacks))]
               : benign[rng_.NextBelow(std::size(benign))];
    trace.push_back(Make(kind));
  }
  return trace;
}

std::vector<TraceRequest> TraceGenerator::VulnerabilityScan(
    const std::string& attacker_ip, std::size_t unknown_probes) {
  std::vector<TraceRequest> scan;
  TraceRequest first = Make(RequestKind::kCgiProbe);
  first.client_ip = attacker_ip;
  scan.push_back(std::move(first));
  for (std::size_t i = 0; i < unknown_probes; ++i) {
    TraceRequest probe;
    probe.kind = RequestKind::kUnknownProbe;
    probe.label = "unknown_probe";
    probe.client_ip = attacker_ip;
    probe.raw = http::BuildGetRequest(
        kUnknownProbes[i % std::size(kUnknownProbes)]);
    scan.push_back(std::move(probe));
  }
  return scan;
}

}  // namespace gaa::workload
