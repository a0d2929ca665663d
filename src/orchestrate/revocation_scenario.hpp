// The revocation-liveness scenario run across real processes: the same
// KeyCOM → sync::Authority → WebCom-master pipeline as the in-process
// integration test, but with the administration point in one process and
// every (master, client, policy-replica) triple in its own process,
// connected by net::TcpTransport over loopback.
//
//   admin process               replica process i (× N)
//   ─────────────               ───────────────────────
//   sync::Authority "admin"  ←  sync::Replica "m<i>.sync"
//   keycom::Service             webcom::Master "m<i>"
//   "ctl" barrier endpoint   ←  webcom::Client "c<i>" (Fred's key)
//
// Flow: the admin publishes the WebCom trust root and commissions Fred
// via KeyCOM; each replica process loops execute() until its (attached,
// never re-attached) client is permitted and reports "permit" to the
// ctl endpoint; once all N reported, the admin withdraws the membership;
// each replica loops until execute() is denied (code "denied") and
// reports "denied"; the admin exits 0 when all N flipped. Every process
// uses the same deterministic crypto::KeyRing seed, so key material
// agrees without any key exchange.
//
// The barrier is acknowledged: a replica resends its phase report until
// the admin's ack comes back, and only then moves on or exits. A report
// sent once can be lost, either to the transport's fault injection or
// because it is still queued when the replica's transport stops at exit.
//
// The parent (tools/mwsec-orchestrate or the integration test) spawns
// the roles from its own binary: call maybe_run_role() first thing in
// main() so the re-exec'd child becomes its role instead of the parent.
#pragma once

#include <chrono>
#include <optional>
#include <string>

#include "util/result.hpp"

namespace mwsec::orchestrate {

struct ScenarioOptions {
  int replicas = 4;
  /// Per-phase deadline inside the roles, and the parent's supervision
  /// deadline is derived from it.
  std::chrono::milliseconds timeout{30000};
  /// Sender-side drop probability on every transport (the scenario must
  /// survive loss via the sync layer's retransmission).
  double drop_probability = 0.0;
};

struct ScenarioReport {
  int replicas = 0;
  int permits = 0;
  int denieds = 0;
  std::chrono::milliseconds elapsed{0};
};

/// Parent half: pick ports, spawn 1 admin + N replica role processes
/// from `exe` (normally self_exe_path()), supervise to the deadline, and
/// parse the admin's summary line. Any role failing (non-zero exit,
/// signal, or timeout) is an error naming the role.
mwsec::Result<ScenarioReport> run_revocation_scenario(
    const std::string& exe, const ScenarioOptions& options = {});

/// Child half: when argv carries --mwsec-role, run that role to
/// completion and return its exit code; std::nullopt when this is not a
/// role invocation (the caller proceeds as the parent). Call before
/// anything else in main().
std::optional<int> maybe_run_role(int argc, char** argv);

}  // namespace mwsec::orchestrate
