// Policy retrieval (paper §6, step 2a: gaa_get_object_policy_info).
//
// Mirrors Apache's .htaccess behaviour: "when processing a client's request
// to access a document Apache looks for an access control file in every
// directory of the path to the document".  The store keeps policy layers of
// one shape — system-wide policies plus local policies attached to directory
// prefixes — for the global layer and for every tenant namespace (DESIGN.md
// §14).  A namespace sees the global layer followed by its own: its system
// policies evaluate after the globals, and its local at a prefix shadows the
// global local there.  The default namespace ("") is the global layer alone.
// PoliciesFor(object, tenant) gathers the namespace's system policies and
// every local policy on the directory chain of `object`, root to leaf.
//
// Every mutation takes one path: canonicalize the prefix, parse, validate,
// apply to one layer, bump the single version counter and republish the
// namespaces that see the layer — all of them for a global change, one for a
// tenant change.  The version lets the policy cache detect staleness.
//
// Compiled-engine publication (DESIGN.md §9): once an engine is bound via
// BindEngine, the store publishes one immutable table holding every
// namespace's compiled PolicySnapshot through one atomic shared_ptr swap
// (RCU-style).  A request thread resolves its namespace with one
// acquire-load plus compares — no lock, no copy — and a policy tightened
// during an attack takes effect on the very next request.  A republish reuses
// the snapshot object of every namespace it does not touch, so their memoized
// decisions stay warm.  A superseded snapshot is reclaimed as soon as the
// last reader releases it (beyond a small configurable floor of the most
// recent ones), so policy churn does not grow memory without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "eacl/ast.h"
#include "eacl/compile.h"
#include "eacl/composition.h"
#include "eacl/ir_store.h"
#include "util/status.h"

namespace gaa::util {
class Clock;
}  // namespace gaa::util

namespace gaa::telemetry {
class MetricRegistry;
}  // namespace gaa::telemetry

namespace gaa::core {

/// What the policy compiler needs; supplied by the GaaApi that owns the
/// registry.  One binding per store — the last bind wins, and snapshots are
/// served only to the registry they were compiled against.
struct EngineBinding {
  const ConditionRegistry* registry = nullptr;
  telemetry::MetricRegistry* metrics = nullptr;  ///< may be null (detached)
  util::Clock* clock = nullptr;                  ///< may be null
};

/// An immutable compiled view of one namespace's policy set at one store
/// version.  The default namespace's snapshot sees only the global layer; a
/// tenant's snapshot layers the tenant's own system policies after the
/// globals and overlays its local policies over the global ones (same-prefix
/// tenant locals shadow).
class PolicySnapshot {
 public:
  std::uint64_t store_version() const { return store_version_; }
  std::uint64_t registry_version() const { return registry_version_; }
  const ConditionRegistry* compiled_for() const { return compiled_for_; }
  eacl::CompositionMode mode() const { return mode_; }

  /// Namespace this snapshot was built for ("" = default).
  const std::string& tenant() const { return tenant_; }

  /// Assemble the per-path view: system policies plus the directory-chain
  /// locals.  Pure pointer gathering over immutable data — no locks.
  eacl::CompiledComposition ForPath(const std::string& object_path) const;

  const std::vector<std::shared_ptr<const eacl::CompiledPolicy>>& system()
      const {
    return system_;
  }
  const std::map<std::string, std::shared_ptr<const eacl::CompiledPolicy>>&
  locals() const {
    return locals_;
  }

 private:
  friend class PolicyStore;

  std::uint64_t store_version_ = 0;
  std::uint64_t registry_version_ = 0;
  const ConditionRegistry* compiled_for_ = nullptr;
  std::string tenant_;
  eacl::CompositionMode mode_ = eacl::CompositionMode::kNarrow;
  std::vector<std::shared_ptr<const eacl::CompiledPolicy>> system_;
  std::map<std::string, std::shared_ptr<const eacl::CompiledPolicy>> locals_;
};

class PolicyStore {
 public:
  /// Add a system-wide policy (parsed EACL text).  Multiple system-wide
  /// policies conjoin at evaluation time.
  util::VoidResult AddSystemPolicy(const std::string& eacl_text);

  /// Same, with an explicit provenance name reported by decision
  /// attribution ("" = positional "system#<index>").  File-backed policies
  /// are named by their path automatically.
  util::VoidResult AddSystemPolicyNamed(const std::string& eacl_text,
                                        const std::string& name);

  /// File-backed variants (the paper's deployment keeps policies in
  /// system and local policy files).
  util::VoidResult AddSystemPolicyFile(const std::string& path);
  util::VoidResult SetLocalPolicyFile(const std::string& dir_prefix,
                                      const std::string& path);

  /// Attach a local policy to a directory prefix, e.g. "/" or "/cgi-bin".
  /// Replaces any previous policy at the same prefix (like rewriting the
  /// directory's .htaccess).  The prefix is canonicalized the way
  /// DirectoryChain spells directories: "" means "/", a trailing '/' is
  /// dropped ("/private/" is "/private"), and a prefix not starting with
  /// '/' is rejected with kInvalidArgument.
  util::VoidResult SetLocalPolicy(const std::string& dir_prefix,
                                  const std::string& eacl_text);

  /// Remove the local policy at a prefix; returns true if one existed.
  bool RemoveLocalPolicy(const std::string& dir_prefix);

  /// Drop all policies — global and every tenant's (tests).
  void Clear();

  // --- tenant namespaces (DESIGN.md §14) -----------------------------------
  // A tenant's layer has the same shape as the global one.  All snapshots
  // are compiled through the content-addressed IrStore, so the shared
  // global layer — and any tenant policy that is structurally identical
  // under the same provenance name — is one compiled object no matter how
  // many tenants reference it.

  /// Create an (empty) tenant namespace.  Idempotent; the tenant becomes
  /// resolvable immediately with the purely-global policy view.
  util::VoidResult AddTenant(const std::string& tenant);

  /// Remove a tenant and retire its snapshot; returns false if unknown.
  bool RemoveTenant(const std::string& tenant);

  bool HasTenant(std::string_view tenant) const;
  std::vector<std::string> TenantNames() const;
  std::size_t tenant_count() const;

  /// Tenant-scoped mutators; tenant "" is the global layer.  Set/Add
  /// auto-create the tenant; all republish before returning.
  util::VoidResult AddTenantSystemPolicy(const std::string& tenant,
                                         const std::string& eacl_text,
                                         const std::string& name = "");
  util::VoidResult SetTenantLocalPolicy(const std::string& tenant,
                                        const std::string& dir_prefix,
                                        const std::string& eacl_text);
  bool RemoveTenantLocalPolicy(const std::string& tenant,
                               const std::string& dir_prefix);

  /// One row of the /__status/tenants view.
  struct TenantInfo {
    std::string name;
    std::uint64_t snapshot_version = 0;
    std::size_t system_policies = 0;  ///< tenant's own layer only
    std::size_t local_policies = 0;   ///< tenant's own layer only
  };
  std::vector<TenantInfo> TenantInfos() const;

  /// The content-addressed compile cache (bench/status introspection).
  eacl::IrStore::Stats ir_store_stats() const { return ir_store_.stats(); }

  /// Retrieve and compose the policies protecting `object_path` in the
  /// `tenant` namespace ("" or unknown = the default namespace) for the
  /// interpreted engine.  System-wide policies come first; local policies
  /// follow the directory chain root→leaf (more-specific policies later,
  /// consistent with ordered evaluation precedence of earlier ==
  /// higher-priority policies).
  eacl::ComposedPolicy PoliciesFor(const std::string& object_path,
                                   std::string_view tenant = "") const;

  /// Version counter bumped by every mutation; used for cache invalidation
  /// and as the fence of the published snapshot table.
  std::uint64_t version() const { return version_.load(); }

  // --- compiled snapshot publication (DESIGN.md §9) -------------------------

  /// Bind the compiler inputs and publish the first snapshots.  Called by
  /// GaaApi construction; harmless to rebind (last bind wins).
  void BindEngine(EngineBinding binding);

  /// The snapshot currently published for `tenant` — one atomic shared_ptr
  /// load, no lock.  An unknown (or empty) tenant resolves to the default
  /// namespace: the unknown-host request is then governed by the global
  /// policy set, never left unpoliced.  Null before BindEngine.  Holding
  /// the returned shared_ptr pins the snapshot; release it promptly
  /// (per-request scope) so superseded snapshots can be reclaimed.
  std::shared_ptr<const PolicySnapshot> CurrentSnapshotFor(
      std::string_view tenant) const;

  /// Hot-path accessor: the published snapshot, republished first (cold,
  /// mutex-guarded) when the table lags `version()` or `registry_version`
  /// says routines were registered after the last compile.  Returns null —
  /// caller falls back to the interpreter — when the engine is bound to a
  /// different registry or the store is in parse-on-retrieve (ablation)
  /// mode.
  std::shared_ptr<const PolicySnapshot> FreshSnapshotFor(
      std::string_view tenant, const ConditionRegistry* registry,
      std::uint64_t registry_version);

  /// Superseded snapshots not yet reclaimed (gauge mirror:
  /// `gaa_policy_snapshots_retired`).
  std::size_t retired_count() const;

  /// Keep at least the `n` most recently superseded snapshots alive even
  /// when unreferenced (debugging headroom; default 2).  Older entries are
  /// reclaimed as soon as no reader holds them.
  void set_retired_floor(std::size_t n);
  std::size_t retired_floor() const;

  /// When enabled, PoliciesFor re-parses the stored policy *text* on every
  /// retrieval instead of returning the pre-parsed form.  This models the
  /// paper's implementation, which read and translated the policy files on
  /// each request — the cost its §9 policy cache was meant to remove.  The
  /// A1 ablation benchmarks flip this switch.  Also disables the compiled
  /// snapshot path (FreshSnapshotFor returns null) so the ablation measures
  /// the interpreted pipeline.
  void SetParseOnRetrieve(bool enabled) { parse_on_retrieve_ = enabled; }
  bool parse_on_retrieve() const { return parse_on_retrieve_; }

  /// Policy counts of the global layer.
  std::size_t system_policy_count() const;
  std::size_t local_policy_count() const;

  /// Split "/a/b/c.html" into its directory chain: "/", "/a", "/a/b".
  static std::vector<std::string> DirectoryChain(const std::string& object_path);

  /// Render the global layer back to EACL text (policy-officer export;
  /// round-trips through the parser).
  std::string ExportSystemPolicies() const;
  std::optional<std::string> ExportLocalPolicy(
      const std::string& dir_prefix) const;

 private:
  /// One stored policy: the parsed form, the text it came from (re-parsed
  /// in parse-on-retrieve mode) and its provenance name for attribution
  /// ("system#<i>", a file path, or "local:<prefix>").
  struct Policy {
    eacl::Eacl eacl;
    std::string text;
    std::string name;
  };

  /// One namespace layer; the global layer and every tenant's.
  struct Layer {
    std::vector<Policy> system;
    std::map<std::string, Policy> locals;  ///< canonical prefix -> policy
  };

  /// A namespace's effective policy set, in evaluation order: global then
  /// tenant system policies, and (prefix, local) pairs after shadowing.
  struct View {
    std::vector<const Policy*> system;
    std::vector<std::pair<std::string_view, const Policy*>> locals;
  };

  /// The published table: every namespace's snapshot, fenced by the
  /// `version_` value it was published at.  Immutable once published.
  struct Table {
    std::uint64_t version = 0;
    std::shared_ptr<const PolicySnapshot> fallback;  ///< the "" namespace
    std::map<std::string, std::shared_ptr<const PolicySnapshot>, std::less<>>
        tenants;

    const std::shared_ptr<const PolicySnapshot>& Find(
        std::string_view tenant) const;
  };

  enum class Op {
    kAddSystem, kSetLocal, kRemoveLocal, kAddTenant, kRemoveTenant, kClear
  };

  /// The one mutation path.  `arg` is the local-policy prefix (kSetLocal,
  /// kRemoveLocal) or the system policy's name (kAddSystem); `text` is the
  /// policy to parse and validate.  Under `mu_` it applies `op` to the
  /// `tenant` layer ("" = global), then bumps `version_` and republishes
  /// the affected namespaces.  Returns whether anything changed: an
  /// idempotent AddTenant or a Remove that found nothing leaves the version
  /// and every snapshot alone.
  util::Result<bool> Mutate(Op op, std::string_view tenant,
                            std::string_view arg = {},
                            const std::string* text = nullptr);

  /// The layering rule, read by both engines; `mu_` held.  With
  /// `object_path` the locals are those on its directory chain, root to
  /// leaf; without, every local the namespace sees.  `tenant` null is the
  /// default namespace.
  View ViewLocked(const Layer* tenant, const std::string* object_path) const;

  /// Compile one namespace's snapshot through the IrStore; `mu_` held.
  std::shared_ptr<const PolicySnapshot> BuildSnapshotLocked(
      const std::string& name, const Layer* tenant);

  /// Publish a new table after a change to `layer` ("" = global: rebuild
  /// every namespace; otherwise rebuild or drop only that tenant and reuse
  /// every other snapshot object), retire what it superseded; `mu_` held.
  /// A no-op until an engine is bound.
  void RepublishLocked(std::string_view layer);

  /// Drop retired snapshots whose use_count fell to the store's own
  /// reference, keeping the `retired_floor_` newest; `mu_` must be held.
  /// Safe because snapshots enter retired_ only after they stop being
  /// published, so their reference count can only decrease.
  void ReclaimRetiredLocked();

  /// The compile-environment identity fed to IrStore::Intern: mixes the
  /// registry pointer + change version and the metrics registry, so a
  /// rebind or routine (un)registration can never serve stale IR.
  std::uint64_t CompileEnvKeyLocked() const;

  mutable std::mutex mu_;
  Layer global_;                                       // under mu_
  std::map<std::string, Layer, std::less<>> tenants_;  // under mu_
  std::atomic<std::uint64_t> version_{0};
  std::atomic<bool> parse_on_retrieve_{false};

  EngineBinding binding_;  // guarded by mu_
  /// Content-addressed compile cache shared by every namespace's builds.
  eacl::IrStore ir_store_;
  /// Published table (null before BindEngine).  Readers load a shared_ptr
  /// (lock-free publication, reference-counted reclamation); superseded
  /// snapshots move to `retired_` until quiescent.
  std::atomic<std::shared_ptr<const Table>> table_;
  std::vector<std::shared_ptr<const PolicySnapshot>> retired_;  // under mu_
  std::size_t retired_floor_ = 2;                               // under mu_
};

}  // namespace gaa::core
