// Framer/parser agreement: for each raw request, the answer over a real
// socket — status, Connection header, and whether the transport itself
// rejected the bytes (Stats::rejected) — must match what the in-process
// pipeline (ParseRequest / HandleText) says about the same bytes.  The
// table leans on the request-smuggling class: where two scanners disagree
// about framing, one of them is being fooled.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "http/doc_tree.h"
#include "http/request.h"
#include "http/server.h"
#include "http/tcp_server.h"
#include "util/clock.h"

namespace gaa::http {
namespace {

struct Exchange {
  std::string raw;
  int status;
  const char* connection;  ///< expected Connection header on the socket
  bool transport_reject;   ///< answered by framing, before the parser
};

struct AgreementCase {
  const char* name;
  std::vector<Exchange> exchanges;  ///< sent in one write (pipelined)
};

std::string HeaderFlood(int headers) {
  std::string raw = "GET /index.html HTTP/1.1\r\nHost: x\r\n";
  for (int i = 0; i < headers; ++i) {
    raw += "X-Flood-" + std::to_string(i) + ": x\r\n";
  }
  return raw + "\r\n";
}

std::vector<AgreementCase> Cases() {
  return {
      // The version field decides keep-alive, not an "http/1.1" anywhere
      // in the request line.
      {"http10_target_mentions_http11",
       {{"GET /nope/http/1.1 HTTP/1.0\r\nHost: x\r\n\r\n", 404, "close",
         false}}},
      // Equal integers, different bytes: a duplicate Content-Length must
      // be byte-identical, and it is the transport that says so.
      {"content_length_5_vs_05",
       {{"POST /cgi-bin/search HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
         "Content-Length: 05\r\n\r\nq=abc",
         400, "close", true}}},
      {"transfer_encoding",
       {{"GET /index.html HTTP/1.1\r\nHost: x\r\n"
         "Transfer-Encoding: chunked\r\n\r\n",
         400, "close", true}}},
      {"content_length_4_vs_11",
       {{"POST /cgi-bin/search HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n"
         "Content-Length: 11\r\n\r\nq=aa",
         400, "close", true}}},
      {"content_length_4_vs_0",
       {{"POST /cgi-bin/search HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n"
         "Content-Length: 0\r\n\r\nq=aa",
         400, "close", true}}},
      {"identical_duplicate_content_length",
       {{"POST /cgi-bin/search HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
         "Content-Length: 5\r\n\r\nq=abc",
         200, "keep-alive", false}}},
      {"encoded_traversal",
       {{"GET /docs/%2e%2e/%2e%2e/etc/passwd HTTP/1.1\r\nHost: x\r\n\r\n", 400,
         "close", false}}},
      {"header_flood", {{HeaderFlood(200), 413, "close", false}}},
      {"conflicting_host",
       {{"GET /index.html HTTP/1.1\r\nHost: a.example\r\n"
         "Host: b.example\r\n\r\n",
         400, "close", false}}},
      {"bad_method",
       {{"GEX /index.html HTTP/1.1\r\nHost: x\r\n\r\n", 400, "close", false}}},
      {"bad_version",
       {{"GET /index.html HTTP/9.9\r\nHost: x\r\n\r\n", 400, "close", false}}},
      {"lf_only_head",
       {{"GET /index.html HTTP/1.1\nHost: x\n\n", 200, "keep-alive", false}}},
      {"pipelined_pair",
       {{"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n", 200, "keep-alive",
         false},
        {"GET /docs/guide.html HTTP/1.1\r\nHost: x\r\n\r\n", 200, "keep-alive",
         false}}},
  };
}

int StatusOf(const std::string& response) {
  return response.size() >= 12 ? std::stoi(response.substr(9, 3)) : 0;
}

std::string ConnectionOf(const std::string& response) {
  const std::string name = "\r\nConnection: ";
  const std::size_t at = response.find(name);
  if (at == std::string::npos) return "";
  const std::size_t start = at + name.size();
  return response.substr(start, response.find("\r\n", start) - start);
}

class FramingAgreementTest : public ::testing::TestWithParam<bool> {
 protected:
  FramingAgreementTest()
      : tree_(DocTree::DemoSite()),
        server_(&tree_, &controller_, &util::RealClock::Instance()) {
    // Untraced, so the template tier (which never runs the parser) serves
    // whatever it admits.
    server_.telemetry()->set_tracing_enabled(false);
  }

  DocTree tree_;
  AllowAllController controller_;
  WebServer server_;
};

TEST_P(FramingAgreementTest, SocketAnswerMatchesInProcessVerdict) {
  TcpServer::Options options;
  options.inline_fast_path = GetParam();
  TcpServer tcp(&server_, options);
  ASSERT_TRUE(tcp.Start().ok());

  for (const AgreementCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    std::string wire;
    std::uint64_t rejects = 0;
    for (const Exchange& e : c.exchanges) {
      wire += e.raw;
      rejects += e.transport_reject ? 1 : 0;
    }
    const std::uint64_t rejected_before = tcp.stats().rejected;
    TcpClient client(tcp.port());
    ASSERT_TRUE(client.SendRaw(wire));
    for (const Exchange& e : c.exchanges) {
      auto response = client.RoundTrip("");  // read the next response
      ASSERT_TRUE(response.ok()) << response.error().ToString();
      const int socket_status = StatusOf(response.value());
      EXPECT_EQ(socket_status, e.status);
      EXPECT_EQ(ConnectionOf(response.value()), e.connection);

      const HttpResponse in_process =
          server_.HandleText(e.raw, util::Ipv4Address(0x7f000001));
      EXPECT_EQ(static_cast<int>(in_process.status), socket_status);
      const ParseResult parsed = ParseRequest(e.raw);
      EXPECT_EQ(parsed.ok(), e.status != 400 && e.status != 413);
      if (e.transport_reject) {
        EXPECT_EQ(parsed.defect, RequestDefect::kBadHeader) << parsed.detail;
      }
    }
    EXPECT_EQ(tcp.stats().rejected - rejected_before, rejects);
  }
  tcp.Stop();
}

INSTANTIATE_TEST_SUITE_P(FastPath, FramingAgreementTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace gaa::http
