#include "http/request.h"

#include <algorithm>

#include "util/strings.h"

namespace gaa::http {

namespace {

bool IsTokenChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_';
}

bool IsKnownMethod(std::string_view method) {
  return method == "GET" || method == "POST" || method == "HEAD" ||
         method == "PUT" || method == "DELETE" || method == "OPTIONS" ||
         method == "TRACE";
}

ParseResult Fail(RequestDefect defect, std::string detail) {
  ParseResult out;
  out.defect = defect;
  out.detail = std::move(detail);
  return out;
}

bool HasControlByte(std::string_view text) {
  return std::any_of(text.begin(), text.end(), [](char c) {
    auto u = static_cast<unsigned char>(c);
    return u != '\r' && u != '\n' && u != '\t' && (u < 0x20 || u > 0x7e);
  });
}

/// The line at *pos without its LF and one trailing CR; advances *pos past
/// the LF.  Returns false when no LF ends the line.
bool NextLine(std::string_view text, std::size_t* pos, std::string_view* line) {
  const std::size_t eol = text.find('\n', *pos);
  const bool terminated = eol != std::string_view::npos;
  *line = text.substr(*pos, (terminated ? eol : text.size()) - *pos);
  *pos = terminated ? eol + 1 : text.size();
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  return terminated;
}

RequestHead BadFraming(RequestHead& head, const char* error) {
  head.framing = RequestHead::Framing::kBad;
  head.framing_error = error;
  return head;
}

}  // namespace

const char* RequestDefectName(RequestDefect defect) {
  switch (defect) {
    case RequestDefect::kNone:
      return "none";
    case RequestDefect::kBadRequestLine:
      return "bad_request_line";
    case RequestDefect::kBadMethod:
      return "bad_method";
    case RequestDefect::kBadVersion:
      return "bad_version";
    case RequestDefect::kBadEscape:
      return "bad_escape";
    case RequestDefect::kControlBytes:
      return "control_bytes";
    case RequestDefect::kOversizedHeader:
      return "oversized_header";
    case RequestDefect::kTooManyHeaders:
      return "too_many_headers";
    case RequestDefect::kBadHeader:
      return "bad_header";
    case RequestDefect::kOversizedTarget:
      return "oversized_target";
    case RequestDefect::kTruncatedBody:
      return "truncated_body";
    case RequestDefect::kPathTraversal:
      return "path_traversal";
  }
  return "?";
}

std::optional<std::pair<std::string, std::string>>
RequestRec::BasicCredentials() const {
  const std::string* auth = Header("authorization");
  if (auth == nullptr) return std::nullopt;
  std::string_view value = util::Trim(*auth);
  if (!util::StartsWith(value, "Basic ") &&
      !util::StartsWith(value, "basic ")) {
    return std::nullopt;
  }
  auto decoded = util::Base64Decode(util::Trim(value.substr(6)));
  if (!decoded.has_value()) return std::nullopt;
  auto colon = decoded->find(':');
  if (colon == std::string::npos) return std::nullopt;
  return std::make_pair(decoded->substr(0, colon), decoded->substr(colon + 1));
}

const std::string* RequestRec::Header(const std::string& lower_name) const {
  auto it = headers.find(lower_name);
  return it == headers.end() ? nullptr : &it->second;
}

RequestHead ScanRequestHead(std::string_view buf, bool whole_text) {
  RequestHead h;
  std::string_view content_length;  // first value, trimmed
  std::size_t pos = 0;
  for (bool request_line = true;; request_line = false) {
    const std::size_t start = pos;
    std::string_view line;
    const bool terminated = NextLine(buf, &pos, &line);
    if (!terminated && !whole_text) return h;

    if (!line.empty() && request_line) {
      const auto space = [](char c) {
        return c <= ' ' && (c == ' ' || c == '\t' || c == '\r' || c == '\f' ||
                            c == '\v');
      };
      std::string_view* const fields[] = {&h.method, &h.target, &h.version};
      for (auto it = line.begin();
           (it = std::find_if_not(it, line.end(), space)) != line.end();) {
        const auto end = std::find_if(it, line.end(), space);
        if (h.request_line_fields < 3) {
          *fields[h.request_line_fields] = std::string_view(&*it, end - it);
        }
        ++h.request_line_fields;
        it = end;
      }
      h.keep_alive = h.version == "HTTP/1.1";
    } else if (!line.empty()) {
      ++h.header_lines;
      h.longest_header_line = std::max(h.longest_header_line, line.size());
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        if (h.nameless_header.empty()) h.nameless_header = line;
      } else {
        const std::string_view name = util::Trim(line.substr(0, colon));
        const std::string_view value = util::Trim(line.substr(colon + 1));
        // A value always points into `buf`, so a null view is an absent one.
        const auto first = [&](std::string_view* slot) {
          if (slot->data() == nullptr) {
            *slot = value;
          } else {
            h.repeats_fast_header = true;
          }
        };
        if (util::EqualsIgnoreCase(name, "content-length")) {
          // A repeat is harmless only when it says exactly the same thing;
          // "5" vs "05" is how two parsers come to disagree.
          if (!content_length.empty()) {
            if (value != content_length) {
              return BadFraming(h, "conflicting duplicate content-length");
            }
          } else {
            auto parsed = util::ParseInt(value);
            if (!parsed.has_value() || *parsed < 0) {
              return BadFraming(h, "unparsable content-length");
            }
            content_length = value;
            h.content_length = static_cast<std::size_t>(*parsed);
          }
        } else if (util::EqualsIgnoreCase(name, "transfer-encoding")) {
          return BadFraming(h, "transfer-encoding not supported");
        } else if (util::EqualsIgnoreCase(name, "connection")) {
          bool close = false;
          bool keep_alive = false;
          for (std::size_t p = 0; p <= value.size();) {
            std::size_t comma = value.find(',', p);
            if (comma == std::string_view::npos) comma = value.size();
            const std::string_view option =
                util::Trim(value.substr(p, comma - p));
            close = close || util::EqualsIgnoreCase(option, "close");
            keep_alive =
                keep_alive || util::EqualsIgnoreCase(option, "keep-alive");
            p = comma + 1;
          }
          if (close) {
            h.keep_alive = false;
          } else if (keep_alive) {
            h.keep_alive = true;
          }
        } else if (util::EqualsIgnoreCase(name, "authorization")) {
          h.has_authorization = true;
        } else if (util::EqualsIgnoreCase(name, "host")) {
          first(&h.host);
        } else if (util::EqualsIgnoreCase(name, "if-none-match")) {
          first(&h.if_none_match);
        } else if (util::EqualsIgnoreCase(name, "if-modified-since")) {
          first(&h.if_modified_since);
        }
      }
    }
    if (line.empty() || !terminated) {
      // The blank line; a whole text without one is all head.
      h.lines = buf.substr(0, line.empty() ? start : pos);
      h.body_offset = pos;
      h.framing = RequestHead::Framing::kComplete;
      return h;
    }
  }
}

RequestDefect CheckRequestHead(const RequestHead& head,
                               const ParseLimits& limits,
                               std::string* detail) {
  const auto defect = [detail](RequestDefect d, std::string text) {
    if (detail != nullptr) *detail = std::move(text);
    return d;
  };
  if (HasControlByte(head.lines)) {
    return defect(RequestDefect::kControlBytes,
                  "control byte in request head");
  }
  if (head.request_line_fields != 3) {
    return defect(RequestDefect::kBadRequestLine,
                  "request line has " +
                      std::to_string(head.request_line_fields) + " fields");
  }
  for (char c : head.method) {
    if (!IsTokenChar(c)) {
      return defect(RequestDefect::kBadMethod,
                    "method contains '" + std::string(1, c) + "'");
    }
  }
  if (!IsKnownMethod(head.method)) {
    return defect(RequestDefect::kBadMethod,
                  "unknown method " + std::string(head.method));
  }
  if (head.version != "HTTP/1.0" && head.version != "HTTP/1.1") {
    return defect(RequestDefect::kBadVersion, std::string(head.version));
  }
  if (head.target.size() > limits.max_target_bytes) {
    return defect(RequestDefect::kOversizedTarget,
                  std::to_string(head.target.size()) + " bytes");
  }
  if (head.longest_header_line > limits.max_header_bytes) {
    return defect(RequestDefect::kOversizedHeader,
                  std::to_string(head.longest_header_line) + " bytes");
  }
  if (head.header_lines > limits.max_headers) {
    return defect(RequestDefect::kTooManyHeaders,
                  "more than " + std::to_string(limits.max_headers));
  }
  if (!head.nameless_header.empty()) {
    return defect(RequestDefect::kBadHeader,
                  std::string(head.nameless_header));
  }
  return RequestDefect::kNone;
}

ParseResult ParseRequest(std::string_view text, const ParseLimits& limits) {
  const RequestHead head = ScanRequestHead(text, /*whole_text=*/true);
  if (head.framing == RequestHead::Framing::kBad) {
    return Fail(RequestDefect::kBadHeader, head.framing_error);
  }
  std::string detail;
  const RequestDefect defect = CheckRequestHead(head, limits, &detail);
  if (defect != RequestDefect::kNone) return Fail(defect, std::move(detail));

  RequestRec rec;
  rec.method = head.method;
  rec.raw_target = head.target;
  rec.http_version = head.version;

  // Split path / query, decode the path.
  std::string_view target = rec.raw_target;
  auto qmark = target.find('?');
  std::string_view path_part =
      qmark == std::string_view::npos ? target : target.substr(0, qmark);
  rec.query = qmark == std::string_view::npos
                  ? std::string()
                  : std::string(target.substr(qmark + 1));
  auto decoded = util::UrlDecode(path_part);
  if (!decoded.has_value()) {
    return Fail(RequestDefect::kBadEscape, std::string(path_part));
  }
  rec.path = *decoded;

  // A ".." segment that survives decoding is never a navigable path in the
  // virtual tree — it is a traversal probe (often percent-encoded to slip
  // past naive filters), so classify rather than 404.
  for (std::size_t seg = 0; seg < rec.path.size();) {
    std::size_t end = rec.path.find('/', seg);
    if (end == std::string::npos) end = rec.path.size();
    if (end - seg == 2 && rec.path[seg] == '.' && rec.path[seg + 1] == '.') {
      return Fail(RequestDefect::kPathTraversal, rec.path);
    }
    seg = end + 1;
  }

  // Headers: the scan vetted every line (each has a name), so what is left
  // is folding them into the record.
  std::size_t pos = 0;
  std::string_view line;
  NextLine(head.lines, &pos, &line);  // the request line
  while (pos < head.lines.size()) {
    NextLine(head.lines, &pos, &line);
    const std::size_t colon = line.find(':');
    std::string name = util::ToLower(util::Trim(line.substr(0, colon)));
    std::string value(util::Trim(line.substr(colon + 1)));
    auto [it, inserted] = rec.headers.emplace(name, value);
    // The scan admits a repeated Content-Length only when identical, so it
    // collapses to one value.
    if (inserted || name == "content-length") continue;
    if (name == "host") {
      // Folding two Hosts destroys the very field caches and routers key
      // on — the raw material of cache poisoning.  Repeats are compared
      // canonically ("Host: a.com" then "Host: A.COM:80" names the same
      // authority, not a conflict) — exactly the form the tenant router
      // matches on, so the reject path and the routing path can never
      // disagree.
      if (NormalizeHost(it->second) != NormalizeHost(value)) {
        return Fail(RequestDefect::kBadHeader, "conflicting duplicate host");
      }
      continue;
    }
    it->second += ", ";
    it->second += value;  // Apache-style duplicate folding
  }

  rec.body = std::string(text.substr(head.body_offset));
  ParseResult out;
  out.request = std::move(rec);
  return out;
}

namespace {

/// The authority minus any port: everything through the closing ']' for a
/// bracketed IPv6 literal, otherwise everything before the first ':'.
std::string_view HostWithoutPort(std::string_view host) {
  if (!host.empty() && host.front() == '[') {
    std::size_t close = host.find(']');
    if (close != std::string_view::npos) return host.substr(0, close + 1);
    return host;  // unterminated bracket: leave it alone
  }
  std::size_t colon = host.find(':');
  return colon == std::string_view::npos ? host : host.substr(0, colon);
}

}  // namespace

std::string_view NormalizeHostInto(std::string_view host, char* buf,
                                   std::size_t cap) {
  std::string_view bare = HostWithoutPort(host);
  // One trailing dot is the DNS root label ("example.com." == "example.com").
  if (!bare.empty() && bare.back() == '.') bare.remove_suffix(1);
  std::size_t n = bare.size() < cap ? bare.size() : cap;
  for (std::size_t i = 0; i < n; ++i) {
    char c = bare[i];
    buf[i] = c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c;
  }
  return std::string_view(buf, n);
}

std::string NormalizeHost(std::string_view host) {
  std::string out(host.size(), '\0');
  out.resize(NormalizeHostInto(host, out.data(), out.size()).size());
  return out;
}

std::string BuildGetRequest(const std::string& target,
                            const std::map<std::string, std::string>& headers) {
  std::string out = "GET " + target + " HTTP/1.1\r\n";
  if (headers.find("Host") == headers.end() &&
      headers.find("host") == headers.end()) {
    out += "Host: localhost\r\n";
  }
  for (const auto& [k, v] : headers) {
    out += k + ": " + v + "\r\n";
  }
  out += "\r\n";
  return out;
}

}  // namespace gaa::http
