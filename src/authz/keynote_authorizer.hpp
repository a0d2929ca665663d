// KeyNote trust management as an `authz::Authorizer` (Figure 10, L2).
//
// Two modes share one decision path: pick a `CompiledStore::StoreHandle`,
// query its snapshot, and label the verdict with the handle's version.
//
//   live store   — the handle is `store.snapshot_with(request credentials)`:
//     the published snapshot when nothing is presented, else a one-shot
//     snapshot of the store plus the presented credentials (such requests
//     bypass caches, see authz.hpp). Either way the verdict epoch is the
//     version the snapshot was compiled from, so a `CachingAuthorizer` in
//     front invalidates exactly when the credential set changes.
//   fixed handle — decisions run against one immutable handle, e.g. KeyCOM
//     authorising every row of an update request against the same
//     store-plus-presented-bundle view.
#pragma once

#include <string>

#include "authz/authz.hpp"
#include "keynote/compiled_store.hpp"

namespace mwsec::authz {

class KeyNoteAuthorizer final : public Authorizer {
 public:
  /// Live mode. `store` must outlive this authoriser.
  explicit KeyNoteAuthorizer(const keynote::CompiledStore& store,
                             std::string name = "L2-keynote")
      : store_(&store), name_(std::move(name)) {}

  /// Fixed-handle mode, e.g. over `CompiledStore::snapshot_with`. Request
  /// credentials are ignored — a snapshot's assertion set is closed (bake
  /// presented credentials in when taking the handle).
  KeyNoteAuthorizer(keynote::CompiledStore::StoreHandle handle,
                    std::string name = "L2-keynote")
      : fixed_(std::move(handle)), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  std::uint64_t epoch() const override {
    return store_ != nullptr ? store_->version() : fixed_.version;
  }

  /// Permit on _MAX_TRUST, deny otherwise (including query errors). Never
  /// abstains — trust management always has an opinion (deny-by-default).
  Verdict decide(const Request& request) const override;

  std::string explain(const Request& request,
                      const Verdict& verdict) const override;

 private:
  /// The handle `request` is decided against.
  keynote::CompiledStore::StoreHandle handle_for(const Request& request) const;

  const keynote::CompiledStore* store_ = nullptr;
  keynote::CompiledStore::StoreHandle fixed_;
  std::string name_;
};

}  // namespace mwsec::authz
