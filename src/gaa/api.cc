#include "gaa/api.h"

#include "eacl/printer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/clock.h"
#include "util/log.h"

namespace gaa::core {

namespace {
const char* BlockSpanName(eacl::CondPhase phase) {
  switch (phase) {
    case eacl::CondPhase::kPre:
      return "gaa.cond.pre";
    case eacl::CondPhase::kRequestResult:
      return "gaa.cond.request_result";
    case eacl::CondPhase::kMid:
      return "gaa.cond.mid";
    case eacl::CondPhase::kPost:
      return "gaa.cond.post";
  }
  return "gaa.cond";
}

int OutcomeIndex(util::Tristate status) {
  return status == util::Tristate::kYes  ? 0
         : status == util::Tristate::kNo ? 1
                                         : 2;
}
}  // namespace

using util::Tristate;

GaaApi::GaaApi(PolicyStore* store, EvalServices services)
    : store_(store), services_(services) {
  cache_.AttachMetrics(services_.metrics);
  decision_cache_.AttachMetrics(services_.metrics);
  // Publish the first compiled snapshot; every later policy mutation
  // republishes under the store's lock.
  store_->BindEngine({&registry_, services_.metrics, services_.clock});
}

util::VoidResult GaaApi::Initialize(const RoutineCatalog& catalog,
                                    std::string_view system_config_text,
                                    std::string_view local_config_text) {
  auto system_cfg = ParseGaaConfig(system_config_text);
  if (!system_cfg.ok()) return system_cfg.error();
  auto local_cfg = ParseGaaConfig(local_config_text);
  if (!local_cfg.ok()) return local_cfg.error();

  // Global params: system first, local overrides.
  std::map<std::string, std::string> global_params = system_cfg.value().params;
  for (const auto& [k, v] : local_cfg.value().params) global_params[k] = v;

  auto install = [&](const GaaConfigFile& cfg) -> util::VoidResult {
    for (const auto& binding : cfg.bindings) {
      std::map<std::string, std::string> params = global_params;
      for (const auto& [k, v] : binding.params) params[k] = v;
      auto inst = catalog.Instantiate(binding.routine, binding.def_auth,
                                      params);
      if (!inst.ok()) return inst.error();
      RoutineCatalog::Instantiated taken = std::move(inst).take();
      registry_.Register(binding.cond_type, binding.def_auth,
                         std::move(taken.routine), taken.traits,
                         std::move(taken.specialize));
    }
    return util::VoidResult::Ok();
  };

  auto r = install(system_cfg.value());
  if (!r.ok()) return r;
  return install(local_cfg.value());
}

eacl::ComposedPolicy GaaApi::GetObjectPolicyInfo(const std::string& object_path,
                                                 std::string_view tenant) {
  if (cache_enabled_) {
    // The §9 policy cache is keyed per namespace: '\x1f' cannot occur in a
    // URL path, so tenant-qualified keys never collide with plain paths.
    std::string cache_key =
        tenant.empty() ? object_path
                       : std::string(tenant) + '\x1f' + object_path;
    std::uint64_t version = store_->version();
    if (auto cached = cache_.Get(cache_key, version)) {
      return *std::move(cached);
    }
    eacl::ComposedPolicy composed =
        store_->PoliciesFor(object_path, tenant);
    cache_.Put(cache_key, version, composed);
    return composed;
  }
  return store_->PoliciesFor(object_path, tenant);
}

telemetry::Counter* GaaApi::EntryCounter(const std::string& policy, int entry,
                                         int outcome_idx) {
  if (services_.metrics == nullptr) return nullptr;
  std::string key = policy + '#' + std::to_string(entry) + '#' +
                    eacl::EntryOutcomeName(outcome_idx);
  {
    std::lock_guard<std::mutex> lock(attr_mu_);
    auto it = entry_counters_.find(key);
    if (it != entry_counters_.end()) return it->second;
  }
  telemetry::Counter* counter = services_.metrics->GetCounter(
      "eacl_entry_decisions_total",
      "policy=\"" + policy + "\",entry=\"" + std::to_string(entry) +
          "\",outcome=\"" + eacl::EntryOutcomeName(outcome_idx) + "\"");
  std::lock_guard<std::mutex> lock(attr_mu_);
  entry_counters_.emplace(std::move(key), counter);
  return counter;
}

telemetry::Histogram* GaaApi::CondHistogram(const eacl::Condition& cond) {
  if (services_.metrics == nullptr) return nullptr;
  std::string key = cond.type + '/' + cond.def_auth;
  {
    std::lock_guard<std::mutex> lock(attr_mu_);
    auto it = cond_histograms_.find(key);
    if (it != cond_histograms_.end()) return it->second;
  }
  telemetry::Histogram* histogram = services_.metrics->GetHistogram(
      "gaa_cond_eval_us",
      "cond=\"" + cond.type + "\",auth=\"" + cond.def_auth + "\"",
      eacl::CondLatencyBoundsUs());
  std::lock_guard<std::mutex> lock(attr_mu_);
  cond_histograms_.emplace(std::move(key), histogram);
  return histogram;
}

EvalOutcome GaaApi::EvalCondition(const eacl::Condition& cond,
                                  eacl::CondPhase phase, RequestContext& ctx,
                                  std::vector<CondTrace>* trace) {
  telemetry::Histogram* latency = CondHistogram(cond);
  util::Stopwatch sw;
  EvalOutcome outcome;
  const CondRoutine* routine = registry_.Find(cond.type, cond.def_auth);
  if (routine == nullptr) {
    // Paper: "The GAA-API returns MAYBE if the corresponding condition
    // evaluation function is not registered with the API."
    outcome = EvalOutcome::Unevaluated("no routine registered for " +
                                       cond.type + "/" + cond.def_auth);
  } else {
    outcome = (*routine)(cond, ctx, services_);
  }
  if (latency != nullptr) {
    latency->Record(static_cast<std::uint64_t>(sw.ElapsedUs()));
  }
  if (trace != nullptr) trace->push_back(CondTrace{cond, outcome, phase});
  return outcome;
}

GaaApi::BlockResult GaaApi::EvalBlock(
    const std::vector<eacl::Condition>& block, eacl::CondPhase phase,
    RequestContext& ctx, std::vector<CondTrace>* trace) {
  BlockResult result;
  result.status = Tristate::kYes;
  telemetry::ScopedSpan span(block.empty() ? nullptr : ctx.trace,
                             BlockSpanName(phase));
  for (const auto& cond : block) {
    EvalOutcome outcome = EvalCondition(cond, phase, ctx, trace);
    if (outcome.status == Tristate::kNo) {
      result.status = Tristate::kNo;
      result.deciding_condition = cond.type;
      // Ordered conjunction: a failed condition settles the block; later
      // conditions (and their side effects) must not run.
      return result;
    }
    if (outcome.status == Tristate::kMaybe) {
      if (result.status != Tristate::kMaybe) {
        result.deciding_condition = cond.type;
      }
      result.status = Tristate::kMaybe;
      if (!outcome.evaluated) result.unevaluated.push_back(cond);
    }
  }
  return result;
}

GaaApi::PolicyAnswer GaaApi::EvalPolicy(const eacl::Eacl& policy,
                                        const std::string& policy_name,
                                        const RequestedRight& right,
                                        RequestContext& ctx,
                                        AuthzResult* out) {
  PolicyAnswer answer;
  for (std::size_t i = 0; i < policy.entries.size(); ++i) {
    const eacl::Entry& entry = policy.entries[i];
    const int entry_index = static_cast<int>(i);
    if (!entry.right.Covers(right.def_auth, right.value)) continue;

    BlockResult pre =
        EvalBlock(entry.pre, eacl::CondPhase::kPre, ctx, &out->trace);

    if (pre.status == Tristate::kNo) {
      // Entry does not apply; scan continues.  Counted as a "miss" so an
      // entry that never fires (a misconfigured signature, say) is visible
      // in /__status/policies.
      if (telemetry::Counter* c = EntryCounter(policy_name, entry_index, 3)) {
        c->Inc();
      }
      continue;
    }

    answer.applicable = true;
    answer.attribution.policy = policy_name;
    answer.attribution.entry = entry_index;
    answer.attribution.condition = pre.deciding_condition;

    if (pre.status == Tristate::kMaybe) {
      // The entry *might* apply; no later entry can soundly override it.
      answer.status = Tristate::kMaybe;
      answer.attribution.status = Tristate::kMaybe;
      out->unevaluated.insert(out->unevaluated.end(), pre.unevaluated.begin(),
                              pre.unevaluated.end());
      if (telemetry::Counter* c = EntryCounter(policy_name, entry_index, 2)) {
        c->Inc();
      }
      return answer;
    }

    // pre.status == YES: the entry decides.
    Tristate status =
        entry.right.positive ? Tristate::kYes : Tristate::kNo;

    if (!entry.request_result.empty()) {
      ctx.request_granted = (status == Tristate::kYes);
      BlockResult rr = EvalBlock(entry.request_result,
                                 eacl::CondPhase::kRequestResult, ctx,
                                 &out->trace);
      ctx.request_granted.reset();
      // "The conjunction of the intermediate result ... is stored in the
      // authorization status."
      status = util::And3(status, rr.status);
      if (rr.status != Tristate::kYes) {
        answer.attribution.condition = rr.deciding_condition;
      }
      if (rr.status == Tristate::kMaybe) {
        out->unevaluated.insert(out->unevaluated.end(), rr.unevaluated.begin(),
                                rr.unevaluated.end());
      }
    }

    if (entry.right.positive && status != Tristate::kNo) {
      out->mid_conditions.insert(out->mid_conditions.end(), entry.mid.begin(),
                                 entry.mid.end());
      out->post_conditions.insert(out->post_conditions.end(),
                                  entry.post.begin(), entry.post.end());
    }

    answer.status = status;
    answer.attribution.status = status;
    if (telemetry::Counter* c =
            EntryCounter(policy_name, entry_index, OutcomeIndex(status))) {
      c->Inc();
    }
    return answer;
  }
  // No entry applied.
  answer.applicable = false;
  answer.status = Tristate::kNo;
  return answer;
}

AuthzResult GaaApi::CheckAuthorization(const eacl::ComposedPolicy& policy,
                                       const RequestedRight& right,
                                       RequestContext& ctx) {
  AuthzResult out;
  telemetry::ScopedSpan span(ctx.trace, "gaa.check_authorization");

  auto eval_side = [&](const std::vector<eacl::Eacl>& policies, bool system,
                       bool* any, std::optional<DecisionAttribution>* attr) {
    // Several separately-specified policies on one side conjoin (§2.1).
    // The side's attribution follows the conjunction: the first applicable
    // policy seeds it, and any policy that downgrades the side's running
    // status (YES → MAYBE → NO) takes it over.
    Tristate side = Tristate::kYes;
    *any = false;
    for (std::size_t i = 0; i < policies.size(); ++i) {
      PolicyAnswer a = EvalPolicy(
          policies[i], system ? policy.SystemName(i) : policy.LocalName(i),
          right, ctx, &out);
      if (!a.applicable) continue;
      Tristate combined = util::And3(side, a.status);
      if (!*any || combined != side) *attr = a.attribution;
      *any = true;
      side = combined;
      if (side == Tristate::kNo) break;  // conjunction settled
    }
    return side;
  };

  bool have_system = false;
  bool have_local = false;
  std::optional<DecisionAttribution> system_attr;
  std::optional<DecisionAttribution> local_attr;
  Tristate system_status =
      eval_side(policy.system_policies, true, &have_system, &system_attr);
  Tristate local_status = Tristate::kNo;
  if (policy.mode != eacl::CompositionMode::kStop &&
      !(policy.mode == eacl::CompositionMode::kNarrow &&
        have_system && system_status == Tristate::kNo)) {
    // Under narrow, a definite system-side denial is final: skip the local
    // side entirely (its request-result actions must not fire for a request
    // the mandatory policy already rejected).
    local_status = eval_side(policy.local_policies, false, &have_local,
                             &local_attr);
  }

  out.applicable = have_system || have_local;
  out.status = eacl::CombineDecisions(policy.mode, system_status, have_system,
                                      local_status, have_local);
  // Best-effort provenance: prefer the side whose answer became the final
  // one (system wins ties — it is the higher-priority side).
  if (have_system && system_status == out.status) {
    out.attribution = std::move(system_attr);
  } else if (have_local && local_status == out.status) {
    out.attribution = std::move(local_attr);
  } else if (system_attr.has_value()) {
    out.attribution = std::move(system_attr);
  } else {
    out.attribution = std::move(local_attr);
  }
  out.detail = std::string("authz=") + util::TristateName(out.status) +
               " right=" + right.def_auth + ":" + right.value +
               " object=" + ctx.object;
  return out;
}

void GaaApi::JoinMemoClass(MemoClass* memo, CondPurity purity) {
  switch (purity) {
    case CondPurity::kPure:
      break;
    case CondPurity::kThreatFenced:
      if (*memo == MemoClass::kPure) *memo = MemoClass::kThreatFenced;
      break;
    case CondPurity::kVolatile:
    case CondPurity::kEffect:
      *memo = MemoClass::kUncacheable;
      break;
  }
}

EvalOutcome GaaApi::EvalCompiledCond(const eacl::CompiledCond& cond,
                                     RequestContext& ctx,
                                     std::vector<CondTrace>* trace,
                                     MemoClass* memo) {
  JoinMemoClass(memo, cond.purity);
  util::Stopwatch sw;
  EvalOutcome outcome = cond.fn(cond.source, ctx, services_);
  if (cond.latency != nullptr) {
    cond.latency->Record(static_cast<std::uint64_t>(sw.ElapsedUs()));
  }
  if (trace != nullptr) {
    trace->push_back(CondTrace{cond.source, outcome, cond.phase});
  }
  return outcome;
}

GaaApi::BlockResult GaaApi::EvalCompiledBlock(
    const std::vector<eacl::CompiledCond>& block, eacl::CondPhase phase,
    RequestContext& ctx, std::vector<CondTrace>* trace, MemoClass* memo) {
  BlockResult result;
  result.status = Tristate::kYes;
  telemetry::ScopedSpan span(block.empty() ? nullptr : ctx.trace,
                             BlockSpanName(phase));
  for (const auto& cond : block) {
    EvalOutcome outcome = EvalCompiledCond(cond, ctx, trace, memo);
    if (outcome.status == Tristate::kNo) {
      result.status = Tristate::kNo;
      result.deciding_condition = cond.source.type;
      return result;
    }
    if (outcome.status == Tristate::kMaybe) {
      if (result.status != Tristate::kMaybe) {
        result.deciding_condition = cond.source.type;
      }
      result.status = Tristate::kMaybe;
      if (!outcome.evaluated) result.unevaluated.push_back(cond.source);
    }
  }
  return result;
}

GaaApi::PolicyAnswer GaaApi::EvalCompiledPolicy(
    const eacl::CompiledPolicy& policy, const RequestedRight& right,
    RequestContext& ctx, AuthzResult* out, MemoClass* memo) {
  // Candidate selection through the per-right index: a concrete hit yields
  // the pre-computed covering list; otherwise only wildcard entries can
  // cover the right and the fallback scans just those.
  const std::vector<std::uint32_t>* indexed =
      policy.IndexedCover(right.def_auth, right.value);
  const std::vector<std::uint32_t>& candidates =
      indexed != nullptr ? *indexed : policy.unindexed_entries();

  PolicyAnswer answer;
  for (std::uint32_t idx : candidates) {
    const eacl::CompiledEntry& entry = policy.entries()[idx];
    if (indexed == nullptr &&
        !entry.right.Covers(right.def_auth, right.value)) {
      continue;
    }

    BlockResult pre =
        EvalCompiledBlock(entry.pre, eacl::CondPhase::kPre, ctx, &out->trace,
                          memo);

    if (pre.status == Tristate::kNo) {
      if (entry.outcomes[3] != nullptr) entry.outcomes[3]->Inc();
      continue;
    }

    answer.applicable = true;
    answer.attribution.policy = policy.name();
    answer.attribution.entry = entry.index;
    answer.attribution.condition = pre.deciding_condition;

    if (pre.status == Tristate::kMaybe) {
      answer.status = Tristate::kMaybe;
      answer.attribution.status = Tristate::kMaybe;
      out->unevaluated.insert(out->unevaluated.end(), pre.unevaluated.begin(),
                              pre.unevaluated.end());
      if (entry.outcomes[2] != nullptr) entry.outcomes[2]->Inc();
      return answer;
    }

    Tristate status = entry.right.positive ? Tristate::kYes : Tristate::kNo;

    if (!entry.request_result.empty()) {
      ctx.request_granted = (status == Tristate::kYes);
      BlockResult rr =
          EvalCompiledBlock(entry.request_result,
                            eacl::CondPhase::kRequestResult, ctx, &out->trace,
                            memo);
      ctx.request_granted.reset();
      status = util::And3(status, rr.status);
      if (rr.status != Tristate::kYes) {
        answer.attribution.condition = rr.deciding_condition;
      }
      if (rr.status == Tristate::kMaybe) {
        out->unevaluated.insert(out->unevaluated.end(), rr.unevaluated.begin(),
                                rr.unevaluated.end());
      }
    }

    if (entry.right.positive && status != Tristate::kNo) {
      out->mid_conditions.insert(out->mid_conditions.end(), entry.mid.begin(),
                                 entry.mid.end());
      out->post_conditions.insert(out->post_conditions.end(),
                                  entry.post.begin(), entry.post.end());
    }

    answer.status = status;
    answer.attribution.status = status;
    if (telemetry::Counter* c = entry.outcomes[OutcomeIndex(status)]) c->Inc();
    return answer;
  }
  answer.applicable = false;
  answer.status = Tristate::kNo;
  return answer;
}

AuthzResult GaaApi::CheckAuthorizationCompiled(
    const eacl::CompiledComposition& view, const RequestedRight& right,
    RequestContext& ctx, MemoClass* memo) {
  AuthzResult out;
  telemetry::ScopedSpan span(ctx.trace, "gaa.check_authorization");

  auto eval_side = [&](const std::vector<const eacl::CompiledPolicy*>& side_p,
                       bool* any, std::optional<DecisionAttribution>* attr) {
    Tristate side = Tristate::kYes;
    *any = false;
    for (const eacl::CompiledPolicy* p : side_p) {
      PolicyAnswer a = EvalCompiledPolicy(*p, right, ctx, &out, memo);
      if (!a.applicable) continue;
      Tristate combined = util::And3(side, a.status);
      if (!*any || combined != side) *attr = a.attribution;
      *any = true;
      side = combined;
      if (side == Tristate::kNo) break;  // conjunction settled
    }
    return side;
  };

  bool have_system = false;
  bool have_local = false;
  std::optional<DecisionAttribution> system_attr;
  std::optional<DecisionAttribution> local_attr;
  Tristate system_status = eval_side(view.system, &have_system, &system_attr);
  Tristate local_status = Tristate::kNo;
  if (view.mode != eacl::CompositionMode::kStop &&
      !(view.mode == eacl::CompositionMode::kNarrow && have_system &&
        system_status == Tristate::kNo)) {
    local_status = eval_side(view.local, &have_local, &local_attr);
  }

  out.applicable = have_system || have_local;
  out.status = eacl::CombineDecisions(view.mode, system_status, have_system,
                                      local_status, have_local);
  if (have_system && system_status == out.status) {
    out.attribution = std::move(system_attr);
  } else if (have_local && local_status == out.status) {
    out.attribution = std::move(local_attr);
  } else if (system_attr.has_value()) {
    out.attribution = std::move(system_attr);
  } else {
    out.attribution = std::move(local_attr);
  }
  out.detail = std::string("authz=") + util::TristateName(out.status) +
               " right=" + right.def_auth + ":" + right.value +
               " object=" + ctx.object;
  return out;
}

std::string GaaApi::DecisionKey(const std::string& object_path,
                                const RequestedRight& right,
                                const RequestContext& ctx) {
  // '\x1f' (unit separator) joins fields, '\x1e' joins list items — neither
  // occurs in HTTP tokens, so distinct inputs cannot collide into one key.
  std::string key;
  key.reserve(object_path.size() + ctx.object.size() + ctx.user.size() + 48);
  key.append(right.def_auth);
  key.push_back('\x1f');
  key.append(right.value);
  key.push_back('\x1f');
  key.append(object_path);
  key.push_back('\x1f');
  key.append(ctx.object);
  key.push_back('\x1f');
  key.push_back(ctx.authenticated ? '1' : '0');
  key.append(ctx.user);
  key.push_back('\x1f');
  for (const auto& g : ctx.groups) {
    key.append(g);
    key.push_back('\x1e');
  }
  key.push_back('\x1f');
  key.append(ctx.client_ip.ToString());
  // Namespace-qualify the memo: two tenants asking the identical question
  // must never share an answer (their policy layers differ), and keeping
  // the tenant in the key — instead of flushing on tenant switches — is
  // what lets one tenant's reload leave every other tenant's memos warm.
  key.push_back('\x1f');
  key.append(ctx.tenant);
  return key;
}

AuthzResult GaaApi::Authorize(const std::string& object_path,
                              const RequestedRight& right,
                              RequestContext& ctx) {
  if (engine_mode_ == EngineMode::kCompiled) {
    std::shared_ptr<const PolicySnapshot> snap = store_->FreshSnapshotFor(
        ctx.tenant, &registry_, registry_.change_version());
    if (snap != nullptr) {
      const bool memo_on =
          decision_cache_enabled_ && decision_cache_.capacity() > 0;
      // Read the threat epoch BEFORE evaluating: if the level transitions
      // mid-evaluation, the entry is stored against the older epoch and is
      // conservatively stale, never freshly wrong.  The fence is the
      // tenant-scoped epoch, so one tenant's threat transition leaves the
      // other namespaces' threat-fenced memos alive.
      const std::uint64_t epoch =
          services_.state != nullptr
              ? services_.state->TenantThreatEpoch(ctx.tenant)
              : 0;
      std::string key;
      if (memo_on) {
        key = DecisionKey(object_path, right, ctx);
        if (auto hit = decision_cache_.Get(key, snap->store_version(),
                                           epoch)) {
          // Keep per-entry attribution counters exact on the memo fast path.
          if (hit->entry_counter != nullptr) hit->entry_counter->Inc();
          return *hit->result;
        }
      }
      telemetry::ScopedSpan lookup_span(ctx.trace, "gaa.snapshot_lookup");
      eacl::CompiledComposition view = snap->ForPath(object_path);
      lookup_span.End();
      MemoClass memo = MemoClass::kPure;
      AuthzResult out = CheckAuthorizationCompiled(view, right, ctx, &memo);
      // Memoize only terminal answers proven repeatable: every evaluated
      // condition was kPure (or kThreatFenced, pinning the entry to the
      // threat epoch) and the result is not MAYBE (a MAYBE must be
      // re-derived so the 401/redirect translation sees fresh unevaluated
      // conditions and new credentials can flip it).
      if (memo_on && memo != MemoClass::kUncacheable &&
          out.status != Tristate::kMaybe) {
        telemetry::Counter* ec = nullptr;
        if (out.attribution.has_value()) {
          ec = EntryCounter(out.attribution->policy, out.attribution->entry,
                            OutcomeIndex(out.status));
        }
        decision_cache_.Put(std::move(key), snap->store_version(),
                            std::make_shared<AuthzResult>(out), ec, epoch,
                            memo == MemoClass::kThreatFenced);
      }
      return out;
    }
    // No snapshot (parse-on-retrieve ablation, or the store is bound to a
    // different engine): fall through to the interpreted pipeline.
  }
  telemetry::ScopedSpan compose_span(ctx.trace, "gaa.policy_compose");
  eacl::ComposedPolicy composed = GetObjectPolicyInfo(object_path, ctx.tenant);
  compose_span.End();
  return CheckAuthorization(composed, right, ctx);
}

bool GaaApi::DecisionIsMemoized(const std::string& object_path,
                                const RequestedRight& right,
                                util::Ipv4Address client_ip,
                                std::string_view tenant) const {
  if (engine_mode_ != EngineMode::kCompiled || !decision_cache_enabled_ ||
      decision_cache_.capacity() == 0) {
    return false;
  }
  std::shared_ptr<const PolicySnapshot> snap =
      store_->CurrentSnapshotFor(tenant);
  if (snap == nullptr || snap->compiled_for() != &registry_ ||
      snap->registry_version() != registry_.change_version()) {
    // A stale or foreign snapshot means Authorize would recompile (or fall
    // back to the interpreter); the probe must not promise a memo hit.
    return false;
  }
  // Mirror the context BuildContext would produce for an anonymous request:
  // DecisionKey reads only object, identity (absent here), client address
  // and tenant, so this key equals the one the full pipeline computes for a
  // credential-less request in the same namespace.
  RequestContext ctx;
  ctx.object = object_path;
  ctx.client_ip = client_ip;
  ctx.tenant = std::string(tenant);
  return decision_cache_.Peek(
      DecisionKey(object_path, right, ctx), snap->store_version(),
      services_.state != nullptr ? services_.state->TenantThreatEpoch(tenant)
                                 : 0);
}

PhaseResult GaaApi::ExecutionControl(const AuthzResult& authz,
                                     RequestContext& ctx) {
  PhaseResult result;
  // Paper §6 phase 3: no mid-conditions ⇒ YES.
  telemetry::ScopedSpan span(authz.mid_conditions.empty() ? nullptr : ctx.trace,
                             BlockSpanName(eacl::CondPhase::kMid));
  for (const auto& cond : authz.mid_conditions) {
    EvalOutcome outcome =
        EvalCondition(cond, eacl::CondPhase::kMid, ctx, &result.trace);
    result.status = util::And3(result.status, outcome.status);
    if (result.status == Tristate::kNo) break;
  }
  return result;
}

PhaseResult GaaApi::PostExecutionActions(const AuthzResult& authz,
                                         RequestContext& ctx,
                                         bool operation_succeeded) {
  PhaseResult result;
  ctx.stats.completed = true;
  ctx.stats.succeeded = operation_succeeded;
  // Paper §6 phase 4: no post-conditions ⇒ YES; otherwise evaluate all (they
  // are actions — each checks its own success/failure trigger).
  telemetry::ScopedSpan span(
      authz.post_conditions.empty() ? nullptr : ctx.trace,
      BlockSpanName(eacl::CondPhase::kPost));
  for (const auto& cond : authz.post_conditions) {
    EvalOutcome outcome =
        EvalCondition(cond, eacl::CondPhase::kPost, ctx, &result.trace);
    result.status = util::And3(result.status, outcome.status);
  }
  return result;
}

}  // namespace gaa::core
