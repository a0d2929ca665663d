#include "keynote/compiled_store.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "keynote/eval.hpp"
#include "keynote/vm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mwsec::keynote {

namespace {

/// Registry references resolved once; recording is gated inside each
/// metric by the global enable flag, so the disabled hot path pays one
/// branch per site.
struct EngineMetrics {
  obs::Counter& queries;
  obs::Histogram& query_us;
  obs::Counter& fixpoint_steps;
  obs::Counter& snapshot_rebuilds;
  obs::Counter& snapshot_with_builds;
  obs::Counter& admission_verifies;
  obs::Counter& presented_dropped;
  obs::Counter& programs_compiled;
  obs::Counter& programs_shared;
  obs::Gauge& index_assertions;
  obs::Gauge& index_programs;
  obs::Gauge& index_guarded;
  obs::Gauge& index_unguarded;
  obs::Gauge& index_never;

  static EngineMetrics& get() {
    auto& r = obs::Registry::global();
    static EngineMetrics m{
        r.counter("keynote.queries"),
        r.histogram("keynote.query_us"),
        r.counter("keynote.fixpoint_steps"),
        r.counter("keynote.snapshot_rebuilds"),
        r.counter("keynote.snapshot_with_builds"),
        r.counter("keynote.admission_verifies"),
        r.counter("keynote.presented_dropped"),
        r.counter("keynote.programs_compiled"),
        r.counter("keynote.programs_shared"),
        r.gauge("keynote.index.assertions"),
        r.gauge("keynote.index.programs"),
        r.gauge("keynote.index.guarded"),
        r.gauge("keynote.index.unguarded"),
        r.gauge("keynote.index.never"),
    };
    return m;
  }
};

CompiledLicensee compile_licensee(const LicenseeExpr& e,
                                  PrincipalTable& principals) {
  CompiledLicensee out;
  out.kind = e.kind;
  out.k = e.k;
  if (e.kind == LicenseeExpr::Kind::kPrincipal) {
    out.principal = principals.intern(e.principal);
  }
  out.children.reserve(e.children.size());
  for (const auto& child : e.children) {
    out.children.push_back(compile_licensee(child, principals));
  }
  return out;
}

void collect_ids(const CompiledLicensee& e, std::vector<std::uint32_t>& out) {
  if (e.kind == LicenseeExpr::Kind::kPrincipal) out.push_back(e.principal);
  for (const auto& child : e.children) collect_ids(child, out);
}

/// Epoch-stamped principal values: a principal whose stamp is not the
/// current epoch still sits at the fixpoint's bottom (`vmin`), so a new
/// query resets every principal by bumping the epoch instead of
/// memsetting an O(principals) vector.
struct PrincipalValues {
  std::vector<std::size_t>& val;
  std::vector<std::uint64_t>& stamp;
  std::uint64_t epoch;
  std::size_t vmin;

  std::size_t get(std::uint32_t p) const {
    return stamp[p] == epoch ? val[p] : vmin;
  }
  void set(std::uint32_t p, std::size_t v) {
    val[p] = v;
    stamp[p] = epoch;
  }
};

/// Licensee evaluation over the interned value vector: || is max, && is
/// min, K-of is the K-th largest member value, exactly as eval_licensees.
std::size_t eval_compiled(const CompiledLicensee& e, const PrincipalValues& pv,
                          std::size_t vmin, std::size_t vmax) {
  switch (e.kind) {
    case LicenseeExpr::Kind::kNone:
      return vmin;
    case LicenseeExpr::Kind::kPrincipal:
      return pv.get(e.principal);
    case LicenseeExpr::Kind::kAnd: {
      std::size_t v = vmax;
      for (const auto& child : e.children) {
        v = std::min(v, eval_compiled(child, pv, vmin, vmax));
      }
      return v;
    }
    case LicenseeExpr::Kind::kOr: {
      std::size_t v = vmin;
      for (const auto& child : e.children) {
        v = std::max(v, eval_compiled(child, pv, vmin, vmax));
      }
      return v;
    }
    case LicenseeExpr::Kind::kThreshold: {
      std::vector<std::size_t> member_values;
      member_values.reserve(e.children.size());
      for (const auto& child : e.children) {
        member_values.push_back(eval_compiled(child, pv, vmin, vmax));
      }
      std::sort(member_values.begin(), member_values.end(),
                std::greater<std::size_t>());
      return member_values[e.k - 1];
    }
  }
  return vmin;
}

}  // namespace

// ---------------------------------------------------------------------------
// PrincipalTable

PrincipalTable::PrincipalTable() {
  intern("POLICY");  // id 0, by construction
}

std::uint32_t PrincipalTable::intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<std::uint32_t> PrincipalTable::find(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// CompiledIndex

void CompiledIndex::add(const Assertion& assertion) {
  CompiledAssertion compiled;
  compiled.source = &assertion;
  compiled.authorizer = assertion.is_policy()
                            ? kPolicyId
                            : principals_.intern(assertion.authorizer());
  compiled.licensees = compile_licensee(assertion.licensees(), principals_);

  // Deduplicate programs: assertions sharing conditions text and local
  // constants (the fig2 sweep, translated RBAC credentials...) share one
  // bytecode program, one compile, one evaluation per query.
  std::string key = assertion.conditions_text();
  for (const auto& [name, val] : assertion.local_constants()) {
    key += '\x01';
    key += name;
    key += '\x02';
    key += val;
  }
  auto it = program_keys_.find(key);
  if (it != program_keys_.end()) {
    compiled.program = it->second;
    EngineMetrics::get().programs_shared.inc();
  } else {
    compiled.program = static_cast<std::uint32_t>(programs_.size());
    ProgramEntry entry;
    entry.compiled = compile_conditions(assertion.conditions(),
                                        assertion.local_constants(), attrs_);
    entry.rep = &assertion;
    programs_.push_back(std::move(entry));
    program_keys_.emplace(std::move(key), compiled.program);
    EngineMetrics::get().programs_compiled.inc();
  }

  auto index = static_cast<std::uint32_t>(assertions_.size());
  std::vector<std::uint32_t> deps;
  collect_ids(compiled.licensees, deps);
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());

  if (dependents_.size() < principals_.size()) {
    dependents_.resize(principals_.size());
  }
  for (std::uint32_t p : deps) dependents_[p].push_back(index);
  assertions_.push_back(std::move(compiled));
  finalized_ = false;
}

void CompiledIndex::finalize() {
  guards_.clear();
  unguarded_.clear();
  never_count_ = 0;

  // One posting-list group per guard attribute an assertion actually
  // keys on; pick each assertion's most selective guard attribute, where
  // selectivity is approximated store-wide by the number of distinct
  // literals seen for the attribute (a per-principal attribute like
  // `user` beats a constant one like `app_domain`).
  std::vector<std::size_t> distinct(attrs_.size(), 0);
  {
    std::vector<std::set<std::string_view>> lits(attrs_.size());
    for (const auto& entry : programs_) {
      for (const auto& [slot, vals] : entry.compiled.guards) {
        for (const auto& v : vals) lits[slot].insert(v);
      }
    }
    for (std::size_t s = 0; s < lits.size(); ++s) distinct[s] = lits[s].size();
  }

  std::vector<std::uint32_t> slot_to_group(attrs_.size(), 0xffffffffu);
  for (std::uint32_t i = 0; i < assertions_.size(); ++i) {
    const CompiledConditions& prog = programs_[assertions_[i].program].compiled;
    if (prog.constant == ProgramConst::kMin) {
      ++never_count_;  // can never grant: drop from every candidate set
      continue;
    }
    const std::vector<std::string>* best_vals = nullptr;
    std::uint32_t best_slot = 0;
    std::size_t best_distinct = 0;
    for (const auto& [slot, vals] : prog.guards) {
      if (best_vals == nullptr || distinct[slot] > best_distinct) {
        best_vals = &vals;
        best_slot = slot;
        best_distinct = distinct[slot];
      }
    }
    if (best_vals == nullptr) {
      unguarded_.push_back(i);
      continue;
    }
    std::uint32_t group = slot_to_group[best_slot];
    if (group == 0xffffffffu) {
      group = static_cast<std::uint32_t>(guards_.size());
      slot_to_group[best_slot] = group;
      guards_.emplace_back();
      guards_.back().slot = best_slot;
    }
    for (const auto& v : *best_vals) guards_[group].by_value[v].push_back(i);
  }
  all_candidates_ = guards_.empty() && never_count_ == 0;
  finalized_ = true;

  auto& m = EngineMetrics::get();
  m.index_assertions.set(static_cast<std::int64_t>(assertions_.size()));
  m.index_programs.set(static_cast<std::int64_t>(programs_.size()));
  m.index_unguarded.set(static_cast<std::int64_t>(unguarded_.size()));
  m.index_never.set(static_cast<std::int64_t>(never_count_));
  m.index_guarded.set(static_cast<std::int64_t>(
      assertions_.size() - unguarded_.size() - never_count_));
}

void CompiledIndex::resolve_attrs(
    const QueryContext& context,
    std::vector<std::string_view>& attr_values) const {
  attr_values.resize(attrs_.size());
  for (std::uint32_t s = 0; s < attr_values.size(); ++s) {
    attr_values[s] = context.reserved_or_env(attrs_.name(s));
  }
}

bool CompiledIndex::candidate_mask(
    const std::vector<std::string_view>& attr_values,
    std::vector<std::uint64_t>& stamp, std::uint64_t epoch) const {
  if (all_candidates_) return false;
  // resize (not assign): stale stamps never equal a fresh epoch, so only
  // the candidates written below cost anything — O(candidates), not
  // O(store), per query.
  if (stamp.size() != assertions_.size()) stamp.assign(assertions_.size(), 0);
  for (std::uint32_t i : unguarded_) stamp[i] = epoch;
  for (const auto& g : guards_) {
    auto it = g.by_value.find(attr_values[g.slot]);
    if (it == g.by_value.end()) continue;
    for (std::uint32_t i : it->second) stamp[i] = epoch;
  }
  return true;
}

std::size_t CompiledIndex::candidate_count(const QueryContext& context) const {
  std::vector<std::string_view> attr_values;
  resolve_attrs(context, attr_values);
  std::vector<std::uint64_t> stamp;
  constexpr std::uint64_t kEpoch = 1;  // fresh stamps are all 0
  if (!candidate_mask(attr_values, stamp, kEpoch)) return assertions_.size();
  return static_cast<std::size_t>(
      std::count(stamp.begin(), stamp.end(), kEpoch));
}

CompiledIndex::Stats CompiledIndex::stats() const {
  Stats s;
  s.assertions = assertions_.size();
  s.programs = programs_.size();
  s.unguarded = unguarded_.size();
  s.never = never_count_;
  s.guarded = s.assertions - s.unguarded - s.never;
  s.guard_attrs = guards_.size();
  s.attr_slots = attrs_.size();
  return s;
}

std::string CompiledIndex::describe() const {
  std::string out;
  for (std::size_t i = 0; i < assertions_.size(); ++i) {
    const auto& a = assertions_[i];
    out += "assertion " + std::to_string(i) + " (authorizer " +
           principals_.name(a.authorizer) + ", program " +
           std::to_string(a.program) + ")\n";
    out += disassemble(programs_[a.program].compiled, attrs_);
  }
  return out;
}

std::size_t CompiledIndex::policy_value(const QueryContext& context) const {
  const Query& q = context.query();
  const std::size_t vmin = q.values.min_index();
  const std::size_t vmax = q.values.max_index();
  const std::size_t n_principals = principals_.size();

  // Per-query working state, thread-local so repeated queries on one
  // thread reuse capacity: a warm query performs no heap allocation at
  // all (the deque the worklist once used was a malloc per query, which
  // dominated single-assertion stores). Every per-principal, per-program
  // and per-assertion array is epoch-stamped rather than memset, so the
  // per-query reset is O(1) and the query itself touches only the
  // requester's reachable subgraph — no O(store) term survives.
  struct QueryScratch {
    std::uint64_t epoch = 0;
    std::vector<std::size_t> value;            // principal -> value
    std::vector<std::uint64_t> value_stamp;    //   valid iff == epoch
    std::vector<std::uint32_t> requester_ids;
    std::vector<std::string_view> attr_values;
    std::vector<std::size_t> conditions;       // program -> value
    std::vector<std::uint64_t> cond_stamp;     //   valid iff == epoch
    VmScratch vm;
    std::vector<std::uint64_t> mask_stamp;     // assertion candidate iff == epoch
    std::vector<std::uint32_t> work;
    std::vector<std::uint64_t> queued_stamp;   // assertion queued iff == epoch
  };
  static thread_local QueryScratch qs;
  const std::uint64_t epoch = ++qs.epoch;

  if (qs.value.size() < n_principals) {
    qs.value.resize(n_principals);
    qs.value_stamp.resize(n_principals, 0);
  }
  PrincipalValues pv{qs.value, qs.value_stamp, epoch, vmin};
  std::vector<std::uint32_t>& requester_ids = qs.requester_ids;
  requester_ids.clear();
  for (const auto& r : q.action_authorizers) {
    if (auto id = principals_.find(r)) {
      if (pv.stamp[*id] != epoch) requester_ids.push_back(*id);
      pv.set(*id, vmax);
    }
  }
  // POLICY requesting from itself is trivially maximal (the reference
  // engine's requester set short-circuits the same way). Only requesters
  // have been stamped so far, so a stamped POLICY means requester.
  if (pv.stamp[kPolicyId] == epoch) return vmax;
  // No assertions: nothing can raise POLICY (and dependents_ was never
  // sized).
  if (assertions_.empty()) return vmin;

  // Fixpoint steps are tallied in a local and flushed once on exit so the
  // inner loop pays no enabled-flag branch (a disabled inc() per worklist
  // pop is measurable at small store sizes).
  struct Tally {
    std::uint64_t fixpoint_steps = 0;
    ~Tally() {
      if (fixpoint_steps != 0) {
        EngineMetrics::get().fixpoint_steps.inc(fixpoint_steps);
      }
    }
  } tally;

  std::vector<std::string_view>& attr_values = qs.attr_values;
  resolve_attrs(context, attr_values);

  // Per-query lazy conditions values, one per deduplicated program: each
  // program the fixpoint touches runs at most once per query.
  std::vector<std::size_t>& conditions = qs.conditions;
  std::vector<std::uint64_t>& cond_stamp = qs.cond_stamp;
  if (conditions.size() < programs_.size()) {
    conditions.resize(programs_.size());
    cond_stamp.resize(programs_.size(), 0);
  }
  VmScratch& scratch = qs.vm;
  auto remember = [&](std::uint32_t program, std::size_t v) {
    conditions[program] = v;
    cond_stamp[program] = epoch;
    return v;
  };
  auto conditions_of = [&](std::uint32_t program) -> std::size_t {
    if (cond_stamp[program] == epoch) return conditions[program];
    const ProgramEntry& entry = programs_[program];
    if (entry.compiled.constant == ProgramConst::kMax) {
      return remember(program, vmax);
    }
    if (entry.compiled.constant == ProgramConst::kMin) {
      return remember(program, vmin);
    }
    if (entry.compiled.needs_dyn) {
      AttrLookup dyn = context.lookup(*entry.rep);
      return remember(program, run_conditions(entry.compiled, q.values,
                                              attr_values, &dyn, scratch));
    }
    return remember(program, run_conditions(entry.compiled, q.values,
                                            attr_values, nullptr, scratch));
  };

  // Assertion-driven worklist fixpoint (chaotic iteration), seeded from
  // the assertions that mention a requester and survive the candidate
  // filter: with every non-requester at _MIN_TRUST an assertion's
  // licensee value can only exceed _MIN_TRUST once some mentioned
  // principal's value has risen, so processing exactly the assertions
  // whose mentioned principals moved reaches the same least fixpoint as
  // the reference engine's full Kleene sweeps — touching only the
  // requester's reachable delegation subgraph instead of the whole store.
  std::vector<std::uint64_t>& mask = qs.mask_stamp;
  const bool use_mask = candidate_mask(attr_values, mask, epoch);

  // LIFO worklist: chaotic iteration reaches the same least fixpoint in
  // any processing order, and a vector-backed stack reuses its buffer.
  std::vector<std::uint32_t>& work = qs.work;
  work.clear();
  std::vector<std::uint64_t>& queued = qs.queued_stamp;
  if (queued.size() < assertions_.size()) queued.resize(assertions_.size(), 0);
  auto enqueue_dependents = [&](std::uint32_t p) {
    if (p >= dependents_.size()) return;
    for (std::uint32_t i : dependents_[p]) {
      if (queued[i] == epoch) continue;
      if (use_mask && mask[i] != epoch) continue;
      queued[i] = epoch;
      work.push_back(i);
    }
  };
  for (std::uint32_t r : requester_ids) enqueue_dependents(r);

  while (!work.empty()) {
    std::uint32_t i = work.back();
    work.pop_back();
    queued[i] = 0;  // 0 never equals a live epoch: eligible to re-queue
    ++tally.fixpoint_steps;

    const CompiledAssertion& a = assertions_[i];
    std::size_t lic = eval_compiled(a.licensees, pv, vmin, vmax);
    // min(lic, conditions) cannot raise the authorizer unless lic does;
    // in particular an assertion whose licensees are at the authorizer's
    // current value never needs its conditions evaluated.
    if (lic <= pv.get(a.authorizer)) continue;
    std::size_t v = std::min(lic, conditions_of(a.program));
    if (v > pv.get(a.authorizer)) {
      pv.set(a.authorizer, v);
      if (a.authorizer == kPolicyId && v == vmax) return vmax;
      enqueue_dependents(a.authorizer);
    }
  }
  return pv.get(kPolicyId);
}

// ---------------------------------------------------------------------------
// CompiledStore

mwsec::Status CompiledStore::add_policy(Assertion assertion) {
  if (!assertion.is_policy()) {
    return Error::make("not a POLICY assertion", "store");
  }
  std::scoped_lock lock(mu_);
  policies_.push_back(std::move(assertion));
  ++version_;
  return {};
}

mwsec::Status CompiledStore::add_policy_text(std::string_view text) {
  auto bundle = Assertion::parse_bundle(text);
  if (!bundle.ok()) return bundle.error();
  for (auto& a : *bundle) {
    if (auto s = add_policy(std::move(a)); !s.ok()) return s;
  }
  return {};
}

mwsec::Status CompiledStore::add_credential(Assertion assertion,
                                            bool verify_signature) {
  if (assertion.is_policy()) {
    return Error::make("POLICY assertion offered as credential", "store");
  }
  if (verify_signature) {
    EngineMetrics::get().admission_verifies.inc();
    if (auto v = assertion.verify(); !v.ok()) return v;
  }
  std::scoped_lock lock(mu_);
  // Idempotent: identical text is stored once.
  for (const auto& existing : credentials_) {
    if (existing.to_text() == assertion.to_text()) return {};
  }
  credentials_.push_back(std::move(assertion));
  ++version_;
  return {};
}

std::size_t CompiledStore::remove_matching(const std::string& text) {
  std::scoped_lock lock(mu_);
  auto before = credentials_.size();
  std::erase_if(credentials_,
                [&](const Assertion& a) { return a.to_text() == text; });
  auto removed = before - credentials_.size();
  if (removed != 0) ++version_;
  return removed;
}

std::size_t CompiledStore::remove_by_authorizer(const std::string& authorizer) {
  std::scoped_lock lock(mu_);
  auto before = credentials_.size();
  std::erase_if(credentials_, [&](const Assertion& a) {
    return a.authorizer() == authorizer;
  });
  auto removed = before - credentials_.size();
  if (removed != 0) ++version_;
  return removed;
}

std::size_t CompiledStore::remove_by_licensee(const std::string& principal) {
  std::scoped_lock lock(mu_);
  auto before = credentials_.size();
  std::erase_if(credentials_, [&](const Assertion& a) {
    std::vector<std::string> mentioned;
    a.licensees().collect_principals(mentioned);
    return std::find(mentioned.begin(), mentioned.end(), principal) !=
           mentioned.end();
  });
  auto removed = before - credentials_.size();
  if (removed != 0) ++version_;
  return removed;
}

std::vector<Assertion> CompiledStore::policies() const {
  std::scoped_lock lock(mu_);
  return policies_;
}

std::vector<Assertion> CompiledStore::credentials() const {
  std::scoped_lock lock(mu_);
  return credentials_;
}

std::vector<Assertion> CompiledStore::credentials_by_authorizer(
    const std::string& authorizer) const {
  std::scoped_lock lock(mu_);
  std::vector<Assertion> out;
  for (const auto& a : credentials_) {
    if (a.authorizer() == authorizer) out.push_back(a);
  }
  return out;
}

std::size_t CompiledStore::policy_count() const {
  std::scoped_lock lock(mu_);
  return policies_.size();
}

std::size_t CompiledStore::credential_count() const {
  std::scoped_lock lock(mu_);
  return credentials_.size();
}

void CompiledStore::clear() {
  std::scoped_lock lock(mu_);
  policies_.clear();
  credentials_.clear();
  ++version_;
}

std::uint64_t CompiledStore::version() const {
  return version_.load(std::memory_order_acquire);
}

void CompiledStore::advance_version_to(std::uint64_t v) {
  std::scoped_lock lock(mu_);
  if (v > version_.load(std::memory_order_relaxed)) {
    version_.store(v, std::memory_order_release);
  }
}

mwsec::Status CompiledStore::install_bundle(std::string_view bundle_text,
                                            std::uint64_t version,
                                            bool verify_signatures) {
  auto bundle = Assertion::parse_bundle(bundle_text);
  if (!bundle.ok()) return bundle.error();
  std::vector<Assertion> policies, credentials;
  for (auto& a : *bundle) {
    if (a.is_policy()) {
      policies.push_back(std::move(a));
    } else {
      if (verify_signatures) {
        EngineMetrics::get().admission_verifies.inc();
        if (auto v = a.verify(); !v.ok()) return v;
      }
      credentials.push_back(std::move(a));
    }
  }
  std::scoped_lock lock(mu_);
  policies_ = std::move(policies);
  credentials_ = std::move(credentials);
  version_ = std::max(version, version_ + 1);
  return {};
}

std::shared_ptr<const CompiledStore::Snapshot> CompiledStore::compile(
    std::vector<Assertion> assertions, std::vector<std::string> dropped) {
  auto snap = std::make_shared<Snapshot>();
  snap->assertions_ = std::move(assertions);
  snap->dropped_ = std::move(dropped);
  for (const auto& a : snap->assertions_) snap->index_.add(a);
  snap->index_.finalize();
  return snap;
}

std::vector<Assertion> CompiledStore::stored_locked(std::size_t extra) const {
  std::vector<Assertion> out;
  out.reserve(policies_.size() + credentials_.size() + extra);
  out.insert(out.end(), policies_.begin(), policies_.end());
  out.insert(out.end(), credentials_.begin(), credentials_.end());
  return out;
}

CompiledStore::StoreHandle CompiledStore::acquire() const {
  // Fast path: the published handle is current. Two acquire loads; no
  // mutex. A writer that moves version_ concurrently either wins (we see
  // the mismatch and take the slow path) or loses (we return the old
  // handle, whose version labels it correctly as the pre-mutation view).
  auto handle = published_.load(std::memory_order_acquire);
  if (handle != nullptr &&
      handle->version == version_.load(std::memory_order_acquire)) {
    return *handle;
  }
  // Slow path: writers move version_ only under mu_, so under the lock
  // the re-check is exact — a reader that queued behind the one that
  // rebuilt this epoch finds the fresh handle and returns it.
  std::scoped_lock lock(mu_);
  handle = published_.load(std::memory_order_relaxed);
  const std::uint64_t version = version_.load(std::memory_order_relaxed);
  if (handle == nullptr || handle->version != version) {
    EngineMetrics::get().snapshot_rebuilds.inc();
    handle = std::make_shared<const StoreHandle>(
        StoreHandle{compile(stored_locked(0), {}), version});
    published_.store(handle, std::memory_order_release);
  }
  return *handle;
}

std::shared_ptr<const CompiledStore::Snapshot> CompiledStore::snapshot()
    const {
  return acquire().snapshot;
}

CompiledStore::StoreHandle CompiledStore::snapshot_with(
    const std::vector<Assertion>& presented,
    const QueryOptions& options) const {
  if (presented.empty()) return acquire();
  EngineMetrics::get().snapshot_with_builds.inc();

  // Presented credentials are screened once, here; every query answered by
  // this snapshot reuses the admission verdicts.
  std::vector<std::string> dropped;
  std::vector<const Assertion*> admitted;
  for (const auto& a : presented) {
    if (a.is_policy()) {
      dropped.push_back("POLICY assertion offered as credential");
      EngineMetrics::get().presented_dropped.inc();
      continue;
    }
    if (options.verify_signatures) {
      EngineMetrics::get().admission_verifies.inc();
      if (auto v = a.verify(); !v.ok()) {
        dropped.push_back(v.error().message);
        EngineMetrics::get().presented_dropped.inc();
        continue;
      }
    }
    admitted.push_back(&a);
  }
  // One lock covers the copy and the version that labels it.
  StoreHandle handle;
  std::vector<Assertion> assertions;
  {
    std::scoped_lock lock(mu_);
    assertions = stored_locked(admitted.size());
    handle.version = version_.load(std::memory_order_relaxed);
  }
  for (const Assertion* a : admitted) assertions.push_back(*a);
  handle.snapshot = compile(std::move(assertions), std::move(dropped));
  return handle;
}

mwsec::Result<QueryResult> CompiledStore::Snapshot::query(
    const Query& q) const {
  auto& metrics = EngineMetrics::get();
  metrics.queries.inc();
  obs::ScopedTimer timer(metrics.query_us);
  // Span (and its name string) built only when tracing is on, keeping the
  // disabled query path to flag-check branches.
  obs::Span span;
  if (obs::Tracer::global().enabled()) {
    span = obs::Tracer::global().root("keynote.query");
  }
  QueryContext context(q);
  QueryResult result;
  result.value_index = index_.policy_value(context);
  result.value_name = q.values.name(result.value_index);
  result.dropped_credentials = dropped_;
  if (span.active()) {
    span.set_attr("requester", q.action_authorizers.empty()
                                   ? std::string_view{}
                                   : std::string_view(q.action_authorizers[0]));
    span.set_attr("compliance", result.value_name);
    if (!dropped_.empty()) {
      span.set_attr("dropped_credentials", std::to_string(dropped_.size()));
    }
    span.set_status(result.authorized() ? "permit" : "deny");
  }
  return result;
}

mwsec::Result<QueryResult> CompiledStore::query(
    const Query& q, const std::vector<Assertion>& presented,
    const QueryOptions& options) const {
  return snapshot_with(presented, options).snapshot->query(q);
}

std::string CompiledStore::to_bundle_text() const {
  std::scoped_lock lock(mu_);
  std::string out;
  for (const auto& p : policies_) {
    out += p.to_text();
    out += "\n";
  }
  for (const auto& c : credentials_) {
    out += c.to_text();
    out += "\n";
  }
  return out;
}

}  // namespace mwsec::keynote
