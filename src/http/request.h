// HTTP request parsing and the Apache-like request record.
//
// The parser accepts HTTP/1.0-1.1 request text and produces a RequestRec —
// our stand-in for Apache's request_rec, the structure the paper's glue
// code mines for GAA parameters (§6 step 2b).  Parsing is deliberately
// strict and *diagnostic*: hostile input is the norm, so instead of just
// failing, the parser labels what is wrong (ill-formed request line, bad
// percent-escapes, control bytes, oversized fields) — those labels feed the
// GAA→IDS "ill-formed access request" reports (§3 item 1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/ip.h"
#include "util/status.h"

namespace gaa::telemetry {
class RequestTrace;
}  // namespace gaa::telemetry

namespace gaa::http {

/// Problems the parser can diagnose on hostile input.
enum class RequestDefect {
  kNone = 0,
  kBadRequestLine,    ///< not "METHOD SP target SP HTTP/x.y"
  kBadMethod,         ///< unknown / non-token method
  kBadVersion,        ///< not HTTP/1.0 or HTTP/1.1
  kBadEscape,         ///< malformed %xx in the target
  kControlBytes,      ///< non-printable bytes in the head
  kOversizedHeader,   ///< a single header exceeds the limit
  kTooManyHeaders,    ///< header count exceeds the limit (the §1 DoS:
                      ///< "a large number of HTTP headers")
  kBadHeader,         ///< header without ':', or conflicting framing headers
  kOversizedTarget,   ///< request target exceeds the limit
  kTruncatedBody,     ///< connection closed before the framed request ended
  kPathTraversal,     ///< decoded ".." segment trying to escape the root
};

const char* RequestDefectName(RequestDefect defect);

/// Parser limits (exposed so tests and the DoS workload can probe them).
struct ParseLimits {
  std::size_t max_target_bytes = 8192;
  std::size_t max_header_bytes = 8192;
  std::size_t max_headers = 100;
};

/// Our request_rec: everything downstream processing needs.
struct RequestRec {
  // request line
  std::string method;       ///< "GET", "POST", "HEAD"
  std::string raw_target;   ///< undecoded, e.g. "/cgi-bin/phf?Qalias=x%0a"
  std::string path;         ///< decoded path, e.g. "/cgi-bin/phf"
  std::string query;        ///< undecoded query string
  std::string http_version; ///< "HTTP/1.1"

  // headers (names lower-cased; duplicates comma-joined like Apache)
  std::map<std::string, std::string> headers;
  std::string body;

  // connection
  util::Ipv4Address client_ip;
  std::uint16_t client_port = 0;

  /// Tenant namespace this request resolved to (normalized Host header →
  /// TenantRouter).  "" is the default namespace — the single-tenant
  /// behaviour — so every pre-tenant caller keeps its exact semantics.
  std::string tenant;

  // authentication (filled by the access-control layer from the
  // Authorization header; empty until Basic credentials are verified)
  std::string auth_user;
  bool authenticated = false;

  /// Telemetry trace for this request, owned by the transport/server layer.
  /// Null when tracing is disabled; downstream layers record spans through
  /// it (null-safe via telemetry::ScopedSpan).
  telemetry::RequestTrace* trace = nullptr;

  /// Raw Basic credentials if the request carried them (user, password).
  std::optional<std::pair<std::string, std::string>> BasicCredentials() const;

  const std::string* Header(const std::string& lower_name) const;
};

/// Parse outcome: either a RequestRec or a diagnosed defect.
struct ParseResult {
  std::optional<RequestRec> request;  ///< set on success
  RequestDefect defect = RequestDefect::kNone;
  std::string detail;

  bool ok() const { return request.has_value(); }
};

/// One request head, scanned in place: every view points into the scanned
/// buffer and is valid only while that buffer is unchanged.  The transport
/// frames with this and the parser builds on it, so each framing rule
/// (head end, Content-Length, Transfer-Encoding, keep-alive) is decided in
/// exactly one place and the two can never disagree about where a request
/// ends.
struct RequestHead {
  enum class Framing {
    kIncomplete,  ///< no blank line yet
    kComplete,    ///< head found; the body is content_length bytes
    kBad,         ///< ambiguous framing (request-smuggling material)
  };
  Framing framing = Framing::kIncomplete;
  const char* framing_error = "";  ///< diagnosis when framing == kBad

  std::string_view lines;       ///< request line + header lines
  std::size_t body_offset = 0;  ///< first byte after the blank line
  std::size_t content_length = 0;
  /// Version field, then the Connection header (kComplete only).
  bool keep_alive = false;

  std::size_t request_line_fields = 0;  ///< whitespace-separated fields
  std::string_view method, target, version;  ///< the first three fields

  std::size_t header_lines = 0;
  std::size_t longest_header_line = 0;
  std::string_view nameless_header;  ///< first line with no "name:" (or "")
  bool has_authorization = false;
  /// First Host and conditional-GET validators ("" when absent).
  std::string_view host, if_none_match, if_modified_since;
  /// Host or a validator appears more than once; only the parser's folding
  /// rules can say what the request means.
  bool repeats_fast_header = false;

  std::size_t total_bytes() const { return body_offset + content_length; }
};

/// Scan the head at the start of `buf` without allocating.  With
/// `whole_text` the buffer is one complete message and, when it has no
/// blank line, all of it is head (in-process callers); otherwise a head
/// without its blank line is kIncomplete (a socket buffer still filling).
RequestHead ScanRequestHead(std::string_view buf, bool whole_text = false);

/// The parser's checks on a scanned head, in diagnosis order: control
/// bytes, request line, method, version, target size, header size, header
/// count and nameless headers.  Returns the first defect (kNone when the
/// head passes) and, when `detail` is non-null, its diagnosis.
RequestDefect CheckRequestHead(const RequestHead& head,
                               const ParseLimits& limits,
                               std::string* detail = nullptr);

/// Parse raw request text (head + optional body, CRLF or LF line endings).
ParseResult ParseRequest(std::string_view text, const ParseLimits& limits = {});

/// Canonicalize a Host header value for routing and comparison: lower-case
/// ASCII, strip an optional ":port" suffix and one trailing dot
/// ("WWW.Example.COM:8080" → "www.example.com").  Bracketed IPv6 literals
/// keep their brackets; only a port after the closing bracket is stripped.
/// Writes into `buf` (no allocation) and returns the view; values longer
/// than `cap` are truncated to `cap` bytes, which can only ever turn a
/// would-be match into a miss.
std::string_view NormalizeHostInto(std::string_view host, char* buf,
                                   std::size_t cap);

/// Allocating convenience wrapper around NormalizeHostInto (no length cap).
std::string NormalizeHost(std::string_view host);

/// Build the canonical request text for a GET (workload generator helper).
std::string BuildGetRequest(const std::string& target,
                            const std::map<std::string, std::string>& headers = {});

}  // namespace gaa::http
