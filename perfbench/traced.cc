#include "traced.h"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

#include "alloc_count.h"
#include "gaa/services.h"
#include "http/request.h"
#include "http/server.h"
#include "integration/gaa_web_server.h"

namespace perfbench {

namespace {

using gaa::http::AccessController;
using gaa::http::HttpResponse;
using gaa::http::OperationObservation;
using gaa::http::RequestRec;

enum Layer : std::uint8_t {
  kServer,
  kCheck,
  kExec,
  kPost,
  kObserve,
  kAudit,
  kParse,
  kRoute,
  kSerialize,
  kCompose,
  kAuthorize,
  kLayerCount
};

const char* const kLayerNames[kLayerCount] = {
    "http.server", "integration.check", "gaa.exec",       "gaa.post",
    "ids.observe", "audit.record",      "http.parse",     "http.route",
    "http.serialize", "gaa.compose",    "gaa.authorize"};

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

struct Span {
  std::uint32_t request = 0;
  Layer layer = kServer;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of the replay thread, in memory until the run ends.  Calls from
/// any other thread (the program's background writers) are not recorded.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity)
      : owner_(std::this_thread::get_id()) {
    spans_.reserve(capacity);
  }

  void set_request(std::uint32_t id) { request_ = id; }

  std::int32_t Open(Layer layer) {
    if (std::this_thread::get_id() != owner_) return -1;
    spans_.push_back(Span{request_, layer, current_, NowNs(), 0});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }

  void Close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::uint32_t request_ = 0;
  std::int32_t current_ = -1;
};

class Scoped {
 public:
  Scoped(SpanRecorder* recorder, Layer layer)
      : recorder_(recorder), index_(recorder->Open(layer)) {}
  ~Scoped() { recorder_->Close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// Forwards every AccessController call to the GaaWebServer's controller.
class TracedController final : public AccessController {
 public:
  TracedController(AccessController* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  Verdict Check(RequestRec& rec) override {
    Scoped span(recorder_, kCheck);
    return inner_->Check(rec);
  }
  bool OnExecution(RequestRec& rec, const OperationObservation& obs) override {
    Scoped span(recorder_, kExec);
    return inner_->OnExecution(rec, obs);
  }
  void OnComplete(RequestRec& rec, const OperationObservation& obs,
                  bool success) override {
    Scoped span(recorder_, kPost);
    inner_->OnComplete(rec, obs, success);
  }
  bool DecisionIsMemoized(std::string_view path, std::string_view method,
                          gaa::util::Ipv4Address client_ip,
                          std::string_view tenant) const override {
    return inner_->DecisionIsMemoized(path, method, client_ip, tenant);
  }
  bool AllowsUnchecked() const override { return inner_->AllowsUnchecked(); }

 private:
  AccessController* inner_;
  SpanRecorder* recorder_;
};

/// Forwards every record to the audit log.
class TracedAudit final : public gaa::core::AuditSink {
 public:
  TracedAudit(gaa::core::AuditSink* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  void Record(const std::string& category, const std::string& message) override {
    Scoped span(recorder_, kAudit);
    inner_->Record(category, message);
  }
  void Record(const std::string& category, const std::string& message,
              std::uint64_t trace_id) override {
    Scoped span(recorder_, kAudit);
    inner_->Record(category, message, trace_id);
  }
  void Record(const gaa::core::AuditEvent& event) override {
    Scoped span(recorder_, kAudit);
    inner_->Record(event);
  }

  gaa::core::AuditSink* inner() const { return inner_; }

 private:
  gaa::core::AuditSink* inner_;
  SpanRecorder* recorder_;
};

constexpr std::uint16_t kClientPort = 40000;

}  // namespace

std::map<std::string, double> RunTraced(const Workload& w,
                                        const std::vector<ReplayItem>& stream,
                                        const std::string& scratch_dir,
                                        const std::string& dump_path,
                                        bool* consistent) {
  const double n = static_cast<double>(stream.size());
  double eacl_ms = 0;

  // Untraced: the same stream through an undecorated server.
  double untraced_ns = 0;
  {
    auto server = BuildServer(w, scratch_dir, &eacl_ms);
    const std::int64_t start = NowNs();
    for (const ReplayItem& item : stream) {
      server->server().HandleText(item.request->raw,
                                  gaa::util::Ipv4Address(item.source),
                                  kClientPort);
    }
    untraced_ns = static_cast<double>(NowNs() - start);
  }

  SpanRecorder recorder(stream.size() * 12);
  std::uint64_t server_allocs = 0;
  std::uint64_t parse_allocs = 0;

  // Traced: a WebServer over the GaaWebServer's components, with the
  // controller and audit sink behind span-recording decorators.
  {
    auto gws = BuildServer(w, scratch_dir, &eacl_ms);
    TracedController controller(&gws->controller(), &recorder);
    gaa::core::EvalServices& services = gws->api().services();
    TracedAudit audit(services.audit, &recorder);
    services.audit = &audit;
    gaa::http::WebServer traced(&gws->tree(), &controller, &gws->clock(),
                                ServerOptions(w, scratch_dir).http);
    traced.set_tenant_router(&gws->tenant_router());
    traced.set_telemetry(&gws->telemetry());
    gaa::web::GaaWebServer* g = gws.get();
    traced.set_malformed_hook([g](gaa::http::RequestDefect defect,
                                  const std::string& detail,
                                  gaa::util::Ipv4Address client_ip) {
      g->server().ReportMalformed(defect, detail, client_ip);
    });
    traced.set_request_observer(
        [g, &recorder](std::string_view, std::string_view target,
                       gaa::util::Ipv4Address client_ip, int) {
          Scoped span(&recorder, kObserve);
          g->ids().ObserveRequest(client_ip.ToString(), std::string(target),
                                  g->clock().Now());
        });
    for (std::size_t i = 0; i < stream.size(); ++i) {
      recorder.set_request(static_cast<std::uint32_t>(i));
      const std::uint64_t allocs = ThreadAllocations();
      HttpResponse response;
      {
        Scoped span(&recorder, kServer);
        response = traced.HandleText(stream[i].request->raw,
                                     gaa::util::Ipv4Address(stream[i].source),
                                     kClientPort);
      }
      server_allocs += ThreadAllocations() - allocs;
      Scoped span(&recorder, kSerialize);
      const std::string head = response.SerializeHead();
    }
    services.audit = audit.inner();
  }

  // Layers called on their own, against a separate server.
  {
    auto shadow = BuildServer(w, scratch_dir, &eacl_ms);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      recorder.set_request(static_cast<std::uint32_t>(i));
      const std::uint64_t allocs = ThreadAllocations();
      gaa::http::ParseResult parsed;
      {
        Scoped span(&recorder, kParse);
        parsed = gaa::http::ParseRequest(stream[i].request->raw);
      }
      parse_allocs += ThreadAllocations() - allocs;
      if (!parsed.ok()) continue;
      RequestRec& rec = *parsed.request;
      rec.client_ip = gaa::util::Ipv4Address(stream[i].source);
      rec.client_port = kClientPort;
      {
        Scoped span(&recorder, kRoute);
        const std::string* host = rec.Header("host");
        char buf[256];
        const std::string_view normalized = gaa::http::NormalizeHostInto(
            host != nullptr ? std::string_view(*host) : std::string_view(),
            buf, sizeof(buf));
        rec.tenant = std::string(shadow->tenant_router().Resolve(normalized).tenant);
      }
      {
        Scoped span(&recorder, kCompose);
        const auto composed =
            shadow->api().GetObjectPolicyInfo(rec.path, rec.tenant);
      }
      gaa::core::RequestContext ctx = shadow->controller().BuildContext(rec);
      const gaa::core::RequestedRight right{
          shadow->controller().options().application, rec.method};
      Scoped span(&recorder, kAuthorize);
      const auto authz = shadow->api().Authorize(rec.path, right, ctx);
    }
  }

  // Self time: a span's duration minus what its children cover.
  const std::vector<Span>& spans = recorder.spans();
  std::vector<double> self(spans.size(), 0.0);
  double total[kLayerCount] = {};
  double self_sum[kLayerCount] = {};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    self[i] += d;
    if (spans[i].parent >= 0) self[static_cast<std::size_t>(spans[i].parent)] -= d;
    total[spans[i].layer] += d;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) self_sum[spans[i].layer] += self[i];

  std::map<std::string, double> m;
  m["http.server.ns"] = total[kServer] / n;
  m["http.server.other_ns"] = self_sum[kServer] / n;
  m["http.server.allocs"] = static_cast<double>(server_allocs) / n;
  for (Layer layer : {kCheck, kExec, kPost, kObserve, kAudit}) {
    m[std::string(kLayerNames[layer]) + ".ns"] = self_sum[layer] / n;
  }
  for (Layer layer : {kParse, kRoute, kSerialize, kCompose, kAuthorize}) {
    m[std::string(kLayerNames[layer]) + ".ns"] = total[layer] / n;
  }
  m["http.parse.allocs"] = static_cast<double>(parse_allocs) / n;
  m["gaa.share_of_server"] =
      (self_sum[kCheck] + self_sum[kExec] + self_sum[kPost]) / total[kServer];
  m["trace.overhead_ratio"] = total[kServer] / untraced_ns;

  double nested = self_sum[kServer];
  for (Layer layer : {kCheck, kExec, kPost, kObserve, kAudit}) {
    nested += self_sum[layer];
  }
  *consistent = std::fabs(nested - total[kServer]) <= 1e-6 * total[kServer];

  if (std::FILE* f = std::fopen(dump_path.c_str(), "w")) {
    std::fprintf(f, "request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%u\t%zu\t%d\t%s\t%lld\t%lld\t%.0f\n", spans[i].request,
                   i, spans[i].parent, kLayerNames[spans[i].layer],
                   static_cast<long long>(spans[i].start_ns - t0),
                   static_cast<long long>(spans[i].end_ns - t0), self[i]);
    }
    std::fclose(f);
  }
  return m;
}

}  // namespace perfbench
