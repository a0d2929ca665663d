// The compiled KeyNote query engine.
//
// `evaluate()` re-interprets the assertion set on every call: it rebuilds
// string-keyed maps of authorizers, evaluates every Conditions program up
// front, and sweeps all assertions per Kleene pass. That is faithful to
// RFC 2704 but wasteful on the hot paths this repository cares about — the
// WebCom scheduler and the KeyCOM administration service issue thousands of
// queries against a store that changes rarely.
//
// The compiled engine splits the work by how often it changes:
//
//   per credential-set change  — principal names are interned to dense ids,
//     Licensees expressions are compiled over those ids, and a reverse
//     dependency index (principal -> assertions mentioning it) is built
//     (`CompiledIndex`). Conditions programs are lowered to bytecode
//     (bytecode.hpp/vm.hpp) and deduplicated — assertions sharing one
//     conditions text + local constants share one program. `finalize()`
//     then builds the *inverted assertion index*: each program's guard
//     (action attributes every satisfiable clause pins to literals, e.g.
//     app_domain == "SalariesDB") becomes a posting list
//     (attribute, literal) -> candidate assertion ids. Credential
//     signatures are verified exactly once, at admission
//     (`CompiledStore::add_credential`).
//   per query                  — an assertion-driven worklist fixpoint:
//     seeded from the assertions that mention a requester *and* survive
//     the candidate filter (posting-list lookup under the query's
//     attribute values), it traverses only the reachable delegation
//     subgraph, evaluates each touched program's Conditions lazily and at
//     most once, and exits early once POLICY reaches _MAX_TRUST. Query
//     cost therefore scales with the requester's delegation
//     neighbourhood, not with store size. Repeated decisions are cached
//     as verdicts one layer up, by `authz::CachingAuthorizer`.
//
// `CompiledStore` packages this behind a mutator/query surface — the
// per-node credential store every KeyNote decision in the repository runs
// against; queries run against an immutable `Snapshot` that is rebuilt
// lazily when the store's version counter moves.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "keynote/assertion.hpp"
#include "keynote/bytecode.hpp"
#include "keynote/query.hpp"

namespace mwsec::keynote {

/// Dense interning of principal names. Id 0 is always "POLICY".
class PrincipalTable {
 public:
  PrincipalTable();

  std::uint32_t intern(std::string_view name);
  /// Id of `name` if it has been interned.
  std::optional<std::uint32_t> find(std::string_view name) const;
  std::size_t size() const { return names_.size(); }
  const std::string& name(std::uint32_t id) const { return names_[id]; }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> ids_;
};

/// A Licensees expression with principals resolved to interned ids, so the
/// fixpoint evaluates it over a flat value vector with no string lookups.
struct CompiledLicensee {
  LicenseeExpr::Kind kind = LicenseeExpr::Kind::kNone;
  std::uint32_t principal = 0;  // for kPrincipal
  std::size_t k = 0;            // for kThreshold
  std::vector<CompiledLicensee> children;
};

struct CompiledAssertion {
  /// Conditions program + local constants live in the source assertion,
  /// which must outlive the index.
  const Assertion* source = nullptr;
  std::uint32_t authorizer = 0;
  /// Index into the deduplicated program table.
  std::uint32_t program = 0;
  CompiledLicensee licensees;
};

/// The compiled, immutable form of one admitted assertion set.
class CompiledIndex {
 public:
  static constexpr std::uint32_t kPolicyId = 0;

  /// Compile and add one admitted assertion. `assertion` must stay valid
  /// (and unmoved) for the life of the index.
  void add(const Assertion& assertion);

  void reserve(std::size_t assertion_count) {
    assertions_.reserve(assertion_count);
  }

  /// Build the inverted assertion index (guard posting lists). Must be
  /// called after the last `add()` and before the first `policy_value()`.
  void finalize();

  /// Compliance value of POLICY for `query`: the worklist fixpoint.
  std::size_t policy_value(const QueryContext& context) const;

  std::size_t assertion_count() const { return assertions_.size(); }

  struct Stats {
    std::size_t assertions = 0;
    std::size_t programs = 0;   // after dedup
    std::size_t guarded = 0;    // assertions reachable only via posting lists
    std::size_t unguarded = 0;  // assertions that are always candidates
    std::size_t never = 0;      // constant-_MIN_TRUST programs, never run
    std::size_t guard_attrs = 0;
    std::size_t attr_slots = 0;
  };
  Stats stats() const;

  /// Number of assertions the candidate filter admits for this query
  /// (assertion_count() when the store is entirely unguarded). Exposed for
  /// index-correctness tests and the revocation-storm bench.
  std::size_t candidate_count(const QueryContext& context) const;

  /// Bytecode listing of every assertion's program (tooling).
  std::string describe() const;

 private:
  struct ProgramEntry {
    CompiledConditions compiled;
    /// Representative assertion: supplies the dynamic lookup chain when
    /// the program needs one (identical local constants by construction).
    const Assertion* rep = nullptr;
  };

  /// Epoch-stamped candidate filter: `stamp[i] == epoch` marks assertion
  /// i a candidate, stale stamps from earlier queries are never reset
  /// (incrementing the epoch invalidates them in O(1)). Returns false
  /// when every assertion is a candidate and no stamps were written.
  bool candidate_mask(const std::vector<std::string_view>& attr_values,
                      std::vector<std::uint64_t>& stamp,
                      std::uint64_t epoch) const;

  void resolve_attrs(const QueryContext& context,
                     std::vector<std::string_view>& attr_values) const;

  PrincipalTable principals_;
  AttrTable attrs_;
  std::vector<CompiledAssertion> assertions_;
  std::vector<ProgramEntry> programs_;
  /// conditions_text + local constants -> program id (admission dedup).
  std::unordered_map<std::string, std::uint32_t> program_keys_;
  /// principal id -> assertions whose Licensees mention it (deduplicated).
  std::vector<std::vector<std::uint32_t>> dependents_;

  // finalize() products — the inverted assertion index.
  struct AttrHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct GuardPostings {
    std::uint32_t slot = 0;  // attribute slot the assertions are keyed by
    std::unordered_map<std::string, std::vector<std::uint32_t>, AttrHash,
                       std::equal_to<>>
        by_value;
  };
  bool finalized_ = false;
  std::vector<GuardPostings> guards_;
  std::vector<std::uint32_t> unguarded_;
  std::size_t never_count_ = 0;
  /// No guards and no never-programs: skip building the mask entirely.
  bool all_candidates_ = true;
};

/// A node's KeyNote credential store — its local POLICY assertions plus
/// the signed credentials it has admitted — with compiled queries. Policies
/// and credentials are kept apart: each mutator refuses the other kind.
/// Every mutation bumps `version()`, which consumers (e.g. the WebCom
/// scheduler's decision cache) use for invalidation.
class CompiledStore {
 public:
  /// Add a POLICY assertion (unsigned, trusted by fiat); anything else is
  /// refused.
  mwsec::Status add_policy(Assertion assertion);
  /// Parse a bundle of POLICY assertions and add them all.
  mwsec::Status add_policy_text(std::string_view text);

  /// Add a credential; its signature is verified here, exactly once —
  /// queries never re-verify stored credentials. A replica applying a
  /// delta from an authority that already verified at admission may pass
  /// `verify_signature = false` (the sync channel vouches for it). A
  /// POLICY assertion is refused whatever `verify_signature` says: it
  /// would pass verification unsigned and then act as a trust root.
  mwsec::Status add_credential(Assertion assertion,
                               bool verify_signature = true);

  std::size_t remove_matching(const std::string& text);
  std::size_t remove_by_authorizer(const std::string& authorizer);
  /// Remove every credential whose Licensees expression mentions
  /// `principal` — revocation by withdrawal of everything delegated *to*
  /// a key (RFC 2704's credential-removal model; the sync layer's
  /// `revoke_by_licensee` delta).
  std::size_t remove_by_licensee(const std::string& principal);

  std::vector<Assertion> policies() const;
  std::vector<Assertion> credentials() const;
  std::vector<Assertion> credentials_by_authorizer(
      const std::string& authorizer) const;

  std::size_t policy_count() const;
  std::size_t credential_count() const;
  void clear();

  /// Monotone counter, bumped by every successful mutation.
  std::uint64_t version() const;

  /// Raise version() to at least `v`. A replicated store calls this after
  /// applying a delta so its version tracks the authority's epoch exactly;
  /// version never moves backwards (caches key on equality, so a forced
  /// move only ever invalidates).
  void advance_version_to(std::uint64_t v);

  /// Replace the entire contents from a bundle (anti-entropy snapshot
  /// install): atomic — on any parse or verification error the store is
  /// left untouched. On success version() becomes max(`version`,
  /// version()+1), i.e. the authority's epoch when the replica is behind.
  mwsec::Status install_bundle(std::string_view bundle_text,
                               std::uint64_t version,
                               bool verify_signatures = true);

  /// An immutable compiled view of the store (optionally extended with
  /// presented credentials): answers many queries against one admission.
  class Snapshot {
   public:
    /// Takes no mutex: the fixpoint reads only this immutable snapshot and
    /// the calling thread's scratch.
    mwsec::Result<QueryResult> query(const Query& q) const;

    /// The compiled index (stats and candidate sets for tests/tools).
    const CompiledIndex& index() const { return index_; }

   private:
    friend class CompiledStore;
    std::vector<Assertion> assertions_;  // owned; index points into this
    CompiledIndex index_;
    std::vector<std::string> dropped_;  // presented credentials not admitted
  };

  /// An epoch-stamped immutable view: the compiled snapshot plus the
  /// version it was built at, captured as one consistent unit. This is the
  /// RCU read-side handle (DESIGN.md §12): handles are published through
  /// an atomic shared_ptr, so `acquire()` on an unchanged store is
  /// lock-free — readers never block writers and a reader that races a
  /// mutation simply keeps the pre-mutation view, correctly labelled with
  /// the pre-mutation version (decision caches key on that version, so a
  /// stale verdict can never be filed under the new epoch).
  struct StoreHandle {
    std::shared_ptr<const Snapshot> snapshot;
    std::uint64_t version = 0;
  };

  /// The current published handle. Lock-free while the store is
  /// unchanged; a version moved by a writer sends exactly one reader per
  /// epoch through the locked rebuild-and-republish slow path.
  StoreHandle acquire() const;

  /// Compiled view of the stored assertions alone (`acquire().snapshot`).
  /// Cached; rebuilt only when the store has changed since the last call.
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Compiled view of the store plus `presented` credentials, each
  /// verified once here (unless `options.verify_signatures` is false).
  /// The handle's version is read under the same lock as the stored
  /// assertions it was compiled from. With nothing presented this is
  /// `acquire()`. Use this to answer many queries for one request — e.g.
  /// KeyCOM authorising every row of an update against the same
  /// presented bundle.
  StoreHandle snapshot_with(const std::vector<Assertion>& presented,
                            const QueryOptions& options = {}) const;

  /// One-shot convenience: `snapshot_with(presented, options)` queried once.
  mwsec::Result<QueryResult> query(const Query& q,
                                   const std::vector<Assertion>& presented = {},
                                   const QueryOptions& options = {}) const;

  /// Serialise the full store as a parseable bundle.
  std::string to_bundle_text() const;

 private:
  /// The one snapshot builder: index `assertions` (stored policies, then
  /// stored credentials, then admitted presented ones).
  static std::shared_ptr<const Snapshot> compile(
      std::vector<Assertion> assertions, std::vector<std::string> dropped);
  /// Copy of the stored assertions in compile order, with room for
  /// `extra` more. Caller holds mu_.
  std::vector<Assertion> stored_locked(std::size_t extra) const;

  mutable std::mutex mu_;
  std::vector<Assertion> policies_;
  std::vector<Assertion> credentials_;
  /// Atomic so version()/acquire() fast paths never take mu_; writers
  /// only move it while holding mu_.
  std::atomic<std::uint64_t> version_{1};
  /// RCU publication point: the one compiled view of the stored
  /// assertions. Readers load it wait-free; the locked slow path of
  /// acquire() swaps in a fresh one after a rebuild.
  mutable std::atomic<std::shared_ptr<const StoreHandle>> published_;
};

}  // namespace mwsec::keynote
