// The traced run: replay a workload's request stream in-process through the
// program's public calls and record a span at each layer boundary, from
// the benchmark's own decorators.  It is separate from the socket run; no
// end-to-end metric comes from it.
//
// Nested under http.server (WebServer::HandleText):
//   integration.check  AccessController::Check, decorator around the
//                      GaaWebServer's controller (GAA phases 2a-2d)
//   gaa.exec           AccessController::OnExecution (phase 3)
//   gaa.post           AccessController::OnComplete (phase 4)
//   ids.observe        IntrusionDetectionSystem::ObserveRequest
//   audit.record       AuditSink::Record, decorator around the audit log
// Called on their own, on the same bytes, against a separate server whose
// side effects (blacklist, notifications) cannot touch the traced one:
//   http.parse         http::ParseRequest
//   http.route         NormalizeHostInto + TenantRouter::Resolve
//   http.serialize     HttpResponse::SerializeHead (of the traced answer)
//   gaa.compose        GaaApi::GetObjectPolicyInfo (phase 2a)
//   gaa.authorize      GaaApi::Authorize (2a + 2c as the controller calls it)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct ReplayItem {
  const Request* request = nullptr;
  std::uint32_t source = 0;  ///< client address, host order
};

/// Per-layer metrics (names as in BENCHMARK.json), each a mean per replayed
/// request.  Writes every span to `dump_path` once, at the end.  Sets
/// *consistent to false when the nested self times do not add up to
/// http.server.ns.
std::map<std::string, double> RunTraced(const Workload& w,
                                        const std::vector<ReplayItem>& stream,
                                        const std::string& scratch_dir,
                                        const std::string& dump_path,
                                        bool* consistent);

}  // namespace perfbench
