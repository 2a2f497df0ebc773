#include "gaa/policy_store.h"

#include "eacl/parser.h"
#include "eacl/validate.h"
#include "eacl/printer.h"
#include "telemetry/metrics.h"
#include "util/clock.h"
#include "util/config.h"

namespace gaa::core {
namespace {

/// A local-policy prefix spelled the way DirectoryChain yields directories
/// ("/", "/private"), or nullopt when it can never match one.
std::optional<std::string> CanonicalPrefix(std::string_view prefix) {
  std::string key = prefix.empty() ? "/" : std::string(prefix);
  while (key.size() > 1 && key.back() == '/') key.pop_back();
  if (key.front() != '/') return std::nullopt;
  return key;
}

util::VoidResult Status(const util::Result<bool>& changed) {
  if (!changed.ok()) return changed.error();
  return util::VoidResult::Ok();
}

}  // namespace

util::VoidResult PolicyStore::AddSystemPolicy(const std::string& eacl_text) {
  return AddTenantSystemPolicy("", eacl_text);
}

util::VoidResult PolicyStore::AddSystemPolicyNamed(const std::string& eacl_text,
                                                   const std::string& name) {
  return AddTenantSystemPolicy("", eacl_text, name);
}

util::VoidResult PolicyStore::AddSystemPolicyFile(const std::string& path) {
  auto text = util::ReadFileToString(path);
  if (!text.ok()) return text.error();
  return AddSystemPolicyNamed(text.value(), path);
}

util::VoidResult PolicyStore::SetLocalPolicyFile(const std::string& dir_prefix,
                                                 const std::string& path) {
  auto text = util::ReadFileToString(path);
  if (!text.ok()) return text.error();
  return SetLocalPolicy(dir_prefix, text.value());
}

util::VoidResult PolicyStore::SetLocalPolicy(const std::string& dir_prefix,
                                             const std::string& eacl_text) {
  return SetTenantLocalPolicy("", dir_prefix, eacl_text);
}

bool PolicyStore::RemoveLocalPolicy(const std::string& dir_prefix) {
  return RemoveTenantLocalPolicy("", dir_prefix);
}

void PolicyStore::Clear() { (void)Mutate(Op::kClear, ""); }

util::VoidResult PolicyStore::AddTenant(const std::string& tenant) {
  if (tenant.empty()) {
    return util::VoidResult(util::ErrorCode::kInvalidArgument,
                            "tenant name must be non-empty (\"\" is the "
                            "default namespace)");
  }
  return Status(Mutate(Op::kAddTenant, tenant));
}

bool PolicyStore::RemoveTenant(const std::string& tenant) {
  return !tenant.empty() &&
         Mutate(Op::kRemoveTenant, tenant).value_or(false);
}

util::VoidResult PolicyStore::AddTenantSystemPolicy(const std::string& tenant,
                                                    const std::string& eacl_text,
                                                    const std::string& name) {
  return Status(Mutate(Op::kAddSystem, tenant, name, &eacl_text));
}

util::VoidResult PolicyStore::SetTenantLocalPolicy(const std::string& tenant,
                                                   const std::string& dir_prefix,
                                                   const std::string& eacl_text) {
  return Status(Mutate(Op::kSetLocal, tenant, dir_prefix, &eacl_text));
}

bool PolicyStore::RemoveTenantLocalPolicy(const std::string& tenant,
                                          const std::string& dir_prefix) {
  return Mutate(Op::kRemoveLocal, tenant, dir_prefix).value_or(false);
}

util::Result<bool> PolicyStore::Mutate(Op op, std::string_view tenant,
                                       std::string_view arg,
                                       const std::string* text) {
  std::string prefix;
  if (op == Op::kSetLocal || op == Op::kRemoveLocal) {
    std::optional<std::string> canonical = CanonicalPrefix(arg);
    if (!canonical.has_value()) {
      return util::Error(util::ErrorCode::kInvalidArgument,
                         "local-policy prefix must start with '/': \"" +
                             std::string(arg) + "\"");
    }
    prefix = std::move(*canonical);
  }
  Policy policy;
  if (text != nullptr) {
    auto parsed = eacl::ParseEacl(*text);
    if (!parsed.ok()) return parsed.error();
    auto valid = eacl::Validate(parsed.value());
    if (!valid.ok()) return valid.error();
    policy = Policy{.eacl = std::move(parsed).take(),
                    .text = *text,
                    .name = op == Op::kSetLocal ? "local:" + prefix
                                                : std::string(arg)};
  }

  std::lock_guard<std::mutex> lock(mu_);
  Layer* layer = &global_;
  auto it = tenants_.end();
  if (!tenant.empty()) {
    it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      // Removing from an unknown tenant changes nothing; any other edit
      // creates the tenant's (empty) layer first.
      if (op == Op::kRemoveLocal || op == Op::kRemoveTenant) return false;
      it = tenants_.emplace(std::string(tenant), Layer{}).first;
    } else if (op == Op::kAddTenant) {
      return false;  // idempotent
    }
    layer = &it->second;
  }
  switch (op) {
    case Op::kAddSystem:
      // Positional default names restart per layer: two tenants installing
      // the same boilerplate text get the same (structure, name) pair and
      // intern to ONE compiled object in the IrStore.
      if (policy.name.empty()) {
        policy.name = "system#" + std::to_string(layer->system.size());
      }
      layer->system.push_back(std::move(policy));
      break;
    case Op::kSetLocal:
      layer->locals[prefix] = std::move(policy);
      break;
    case Op::kRemoveLocal:
      if (layer->locals.erase(prefix) == 0) return false;
      break;
    case Op::kAddTenant:
      break;  // the layer was created above
    case Op::kRemoveTenant:
      tenants_.erase(it);
      break;
    case Op::kClear:
      global_ = Layer{};
      tenants_.clear();
      break;
  }
  version_.fetch_add(1, std::memory_order_acq_rel);
  RepublishLocked(tenant);
  return true;
}

std::vector<std::string> PolicyStore::DirectoryChain(
    const std::string& object_path) {
  std::vector<std::string> chain;
  chain.push_back("/");
  if (object_path.empty() || object_path[0] != '/') return chain;
  std::size_t pos = 1;
  while (pos < object_path.size()) {
    std::size_t slash = object_path.find('/', pos);
    if (slash == std::string::npos) break;  // final component is the object
    chain.push_back(object_path.substr(0, slash));
    pos = slash + 1;
  }
  return chain;
}

PolicyStore::View PolicyStore::ViewLocked(
    const Layer* tenant, const std::string* object_path) const {
  View view;
  for (const Policy& p : global_.system) view.system.push_back(&p);
  if (tenant != nullptr) {
    for (const Policy& p : tenant->system) view.system.push_back(&p);
  }
  // A tenant local shadows the global local at the same prefix.
  auto add_local = [&](const std::string& prefix) {
    if (tenant != nullptr) {
      auto it = tenant->locals.find(prefix);
      if (it != tenant->locals.end()) {
        view.locals.emplace_back(it->first, &it->second);
        return;
      }
    }
    auto it = global_.locals.find(prefix);
    if (it != global_.locals.end()) {
      view.locals.emplace_back(it->first, &it->second);
    }
  };
  if (object_path != nullptr) {
    for (const auto& dir : DirectoryChain(*object_path)) add_local(dir);
    return view;
  }
  for (const auto& [prefix, p] : global_.locals) add_local(prefix);
  if (tenant != nullptr) {
    for (const auto& [prefix, p] : tenant->locals) {
      if (!global_.locals.contains(prefix)) {
        view.locals.emplace_back(prefix, &p);
      }
    }
  }
  return view;
}

eacl::ComposedPolicy PolicyStore::PoliciesFor(const std::string& object_path,
                                              std::string_view tenant) const {
  const bool reparse = parse_on_retrieve_.load();
  std::vector<eacl::Eacl> lists[2];
  std::vector<std::string> names[2];
  std::vector<std::string> texts[2];
  {
    std::lock_guard<std::mutex> lock(mu_);
    // "" is never a tenant key, so it resolves to the global layer alone,
    // and so does an unknown tenant.
    auto it = tenants_.find(tenant);
    const View view = ViewLocked(
        it == tenants_.end() ? nullptr : &it->second, &object_path);
    auto take = [&](int i, const Policy& p) {
      names[i].push_back(p.name);
      if (reparse) {
        texts[i].push_back(p.text);
      } else {
        lists[i].push_back(p.eacl);
      }
    };
    for (const Policy* p : view.system) take(0, *p);
    for (const auto& [prefix, p] : view.locals) take(1, *p);
  }
  // Paper-faithful mode: read and translate the policy text per request
  // (gaa_get_object_policy_info "reads the system-wide policy file,
  // converts it to the internal EACL representation...").
  for (int i = 0; i < 2; ++i) {
    for (const auto& text : texts[i]) {
      auto parsed = eacl::ParseEacl(text);
      if (parsed.ok()) lists[i].push_back(std::move(parsed).take());
    }
  }
  return eacl::Compose(std::move(lists[0]), std::move(lists[1]),
                       std::move(names[0]), std::move(names[1]));
}

bool PolicyStore::HasTenant(std::string_view tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.find(tenant) != tenants_.end();
}

std::vector<std::string> PolicyStore::TenantNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, layer] : tenants_) names.push_back(name);
  return names;
}

std::size_t PolicyStore::tenant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

std::vector<PolicyStore::TenantInfo> PolicyStore::TenantInfos() const {
  std::shared_ptr<const Table> table = table_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantInfo> out;
  out.reserve(tenants_.size());
  for (const auto& [name, layer] : tenants_) {
    TenantInfo info;
    info.name = name;
    info.system_policies = layer.system.size();
    info.local_policies = layer.locals.size();
    if (table != nullptr) {
      auto it = table->tenants.find(name);
      if (it != table->tenants.end()) {
        info.snapshot_version = it->second->store_version();
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

eacl::CompiledComposition PolicySnapshot::ForPath(
    const std::string& object_path) const {
  eacl::CompiledComposition out;
  out.mode = mode_;
  out.system.reserve(system_.size());
  for (const auto& p : system_) out.system.push_back(p.get());
  if (mode_ != eacl::CompositionMode::kStop) {
    for (const auto& dir : PolicyStore::DirectoryChain(object_path)) {
      auto it = locals_.find(dir);
      if (it != locals_.end()) out.local.push_back(it->second.get());
    }
  }
  return out;
}

void PolicyStore::BindEngine(EngineBinding binding) {
  std::lock_guard<std::mutex> lock(mu_);
  binding_ = binding;
  ir_store_.AttachMetrics(binding.metrics);
  RepublishLocked("");
}

const std::shared_ptr<const PolicySnapshot>& PolicyStore::Table::Find(
    std::string_view tenant) const {
  if (!tenant.empty()) {
    auto it = tenants.find(tenant);
    if (it != tenants.end()) return it->second;
  }
  return fallback;
}

std::shared_ptr<const PolicySnapshot> PolicyStore::CurrentSnapshotFor(
    std::string_view tenant) const {
  std::shared_ptr<const Table> table = table_.load(std::memory_order_acquire);
  if (table == nullptr) return nullptr;
  return table->Find(tenant);
}

std::shared_ptr<const PolicySnapshot> PolicyStore::FreshSnapshotFor(
    std::string_view tenant, const ConditionRegistry* registry,
    std::uint64_t registry_version) {
  if (parse_on_retrieve_.load(std::memory_order_relaxed)) return nullptr;
  std::shared_ptr<const Table> table = table_.load(std::memory_order_acquire);
  if (table != nullptr &&
      table->version == version_.load(std::memory_order_acquire)) {
    // Hot path: one atomic shared_ptr load plus compares.  The version
    // check is the staleness regression guard: a table that lags its
    // sources (a mutation that forgot to republish) is rebuilt below
    // instead of being served forever.
    const std::shared_ptr<const PolicySnapshot>& snap = table->Find(tenant);
    if (snap->compiled_for() == registry &&
        snap->registry_version() == registry_version) {
      return snap;
    }
  }
  // Cold path: routines were (un)registered since the last compile, the
  // table lags the sources, or another GaaApi rebound the store.
  std::lock_guard<std::mutex> lock(mu_);
  if (binding_.registry != registry) {
    // Engine bound elsewhere (e.g. two APIs sharing one store): serving a
    // snapshot compiled against a different registry would evaluate the
    // wrong routines.  Fall back to the interpreter.
    return nullptr;
  }
  table = table_.load(std::memory_order_acquire);
  if (table == nullptr || table->version != version_.load() ||
      table->Find(tenant)->registry_version() != registry->change_version()) {
    RepublishLocked("");
    table = table_.load(std::memory_order_acquire);
  }
  return table->Find(tenant);
}

std::uint64_t PolicyStore::CompileEnvKeyLocked() const {
  std::uint64_t key = binding_.registry->change_version();
  key = key * 0x9E3779B97F4A7C15ULL ^
        static_cast<std::uint64_t>(
            reinterpret_cast<std::uintptr_t>(binding_.registry));
  key ^= static_cast<std::uint64_t>(
             reinterpret_cast<std::uintptr_t>(binding_.metrics)) << 1;
  return key;
}

std::shared_ptr<const PolicySnapshot> PolicyStore::BuildSnapshotLocked(
    const std::string& name, const Layer* tenant) {
  auto snap = std::make_shared<PolicySnapshot>();
  snap->store_version_ = version_.load();
  snap->registry_version_ = binding_.registry->change_version();
  snap->compiled_for_ = binding_.registry;
  snap->tenant_ = name;

  eacl::CompileEnv env{binding_.registry, binding_.metrics};
  const std::uint64_t env_key = CompileEnvKeyLocked();
  auto intern = [&](const Policy& p) {
    return ir_store_.Intern(p.eacl, p.name, env, env_key);
  };
  const View view = ViewLocked(tenant, nullptr);
  // Effective composition mode mirrors eacl::Compose: the first system
  // policy declaring one wins (globals come first); default narrow.
  bool mode_set = false;
  snap->system_.reserve(view.system.size());
  for (const Policy* p : view.system) {
    if (!mode_set && p->eacl.mode.has_value()) {
      snap->mode_ = *p->eacl.mode;
      mode_set = true;
    }
    snap->system_.push_back(intern(*p));
  }
  for (const auto& [prefix, p] : view.locals) {
    snap->locals_.emplace(prefix, intern(*p));
  }
  return snap;
}

void PolicyStore::RepublishLocked(std::string_view layer) {
  if (binding_.registry == nullptr) return;
  util::Stopwatch sw;
  std::shared_ptr<const Table> prev = table_.load(std::memory_order_acquire);
  auto next = std::make_shared<Table>();
  next->version = version_.load();
  if (!layer.empty() && prev != nullptr) {
    // A tenant-layer change: every other namespace keeps its snapshot
    // object, and with it every memoized decision fenced on it.
    next->fallback = prev->fallback;
    next->tenants = prev->tenants;
    if (auto old = next->tenants.find(layer); old != next->tenants.end()) {
      next->tenants.erase(old);
    }
    if (auto it = tenants_.find(layer); it != tenants_.end()) {
      next->tenants.emplace(it->first,
                            BuildSnapshotLocked(it->first, &it->second));
    }
  } else {
    // A global change reaches every namespace.  Shared fragments intern to
    // the objects the default snapshot just created, so this is N
    // pointer-sharing passes, not N compiles.
    next->fallback = BuildSnapshotLocked("", nullptr);
    for (const auto& [name, tenant] : tenants_) {
      next->tenants.emplace(name, BuildSnapshotLocked(name, &tenant));
    }
  }
  if (binding_.metrics != nullptr) {
    binding_.metrics->GetHistogram("gaa_policy_compile_us")
        ->Record(static_cast<std::uint64_t>(sw.ElapsedUs()));
    binding_.metrics->GetGauge("gaa_policy_snapshot_version")
        ->Set(static_cast<std::int64_t>(next->version));
    binding_.metrics->GetGauge("gaa_policy_snapshot_built_us")
        ->Set(static_cast<std::int64_t>(sw.ElapsedUs()));
    binding_.metrics->GetGauge("gaa_tenant_count")
        ->Set(static_cast<std::int64_t>(tenants_.size()));
  }

  // Publish, retire every snapshot the new table no longer serves, reclaim
  // quiescent retirees.  Readers that loaded an old snapshot before the
  // swap hold their own reference; it is freed once the last of them
  // releases it.
  table_.store(std::shared_ptr<const Table>(next), std::memory_order_release);
  if (prev != nullptr) {
    if (next->fallback != prev->fallback) retired_.push_back(prev->fallback);
    for (const auto& [name, snap] : prev->tenants) {
      if (next->Find(name) != snap) retired_.push_back(snap);
    }
    prev.reset();  // the old table's references must not pin the retirees
  }
  ReclaimRetiredLocked();
}

void PolicyStore::ReclaimRetiredLocked() {
  if (retired_.size() > retired_floor_) {
    std::vector<std::shared_ptr<const PolicySnapshot>> kept;
    kept.reserve(retired_.size());
    for (std::size_t i = 0; i < retired_.size(); ++i) {
      // Entries within the floor window (newest last) are kept regardless.
      bool in_floor = i + retired_floor_ >= retired_.size();
      // use_count()==1 means only retired_ itself holds the snapshot.  It
      // left publication before entering this list (under this mutex), so
      // no reader can acquire a new reference — the count only decreases
      // and 1 is a stable "quiescent" reading.
      if (in_floor || retired_[i].use_count() > 1) {
        kept.push_back(std::move(retired_[i]));
      }
    }
    retired_.swap(kept);
  }
  if (binding_.metrics != nullptr) {
    binding_.metrics->GetGauge("gaa_policy_snapshots_retired")
        ->Set(static_cast<std::int64_t>(retired_.size()));
  }
}

std::size_t PolicyStore::retired_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

void PolicyStore::set_retired_floor(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  retired_floor_ = n;
  ReclaimRetiredLocked();
}

std::size_t PolicyStore::retired_floor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_floor_;
}

std::string PolicyStore::ExportSystemPolicies() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (std::size_t i = 0; i < global_.system.size(); ++i) {
    if (i > 0) out += "\n";
    out += eacl::PrintEacl(global_.system[i].eacl);
  }
  return out;
}

std::optional<std::string> PolicyStore::ExportLocalPolicy(
    const std::string& dir_prefix) const {
  std::optional<std::string> key = CanonicalPrefix(dir_prefix);
  if (!key.has_value()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = global_.locals.find(*key);
  if (it == global_.locals.end()) return std::nullopt;
  return eacl::PrintEacl(it->second.eacl);
}

std::size_t PolicyStore::system_policy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return global_.system.size();
}

std::size_t PolicyStore::local_policy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return global_.locals.size();
}

}  // namespace gaa::core
