// Process orchestration for multi-process deployments (DESIGN.md §14):
// fork/exec a group of role processes (the same binary re-executed with
// --mwsec-* flags), distribute the listen-port plan to them as routes,
// and supervise the group to a deadline. This is the harness under
// tools/mwsec-orchestrate and the multi-process integration tests — the
// paper's Figure-3 deployment (masters, clients, replicas on separate
// hosts) reduced to separate processes on loopback.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "util/result.hpp"

namespace mwsec::orchestrate {

/// The path of the currently running executable (/proc/self/exe), so a
/// test or tool can respawn itself in a role.
std::string self_exe_path();

/// Bind-and-release a free loopback port for a role to listen on later.
/// Ports come from below the kernel's ephemeral range, because an
/// ephemeral one can be taken by any outgoing connect() before the role
/// binds it. Successive calls in a process never repeat a port until
/// they have walked the whole range. Another process could still bind
/// the port first; the orchestrated scenarios are test rigs, not
/// production deployments.
std::uint16_t pick_unused_port();

/// "name=host:port,name=host:port" — the route-plan codec passed to role
/// processes via --mwsec-routes. Names are endpoint names; each entry
/// becomes a TcpTransport::add_route in the child.
std::string encode_routes(const std::map<std::string, std::string>& routes);
std::map<std::string, std::string> decode_routes(const std::string& encoded);

/// A group of spawned role processes, supervised together. Children that
/// are still alive when the group dies are killed — no orphans.
class ProcessGroup {
 public:
  struct Child {
    std::string name;
    pid_t pid = -1;
    int stdout_fd = -1;  ///< read end of the capture pipe, -1 if inherited
    bool exited = false;
    int exit_code = -1;   ///< valid once exited
    bool signaled = false;  ///< terminated by a signal instead
  };

  ProcessGroup() = default;
  ~ProcessGroup();
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  /// fork/exec `exe` with `args` (argv[0] is derived from `exe`). With
  /// `capture_stdout`, the child's stdout is piped back for
  /// drain_stdout(); stderr is always inherited so failures are visible.
  mwsec::Result<std::size_t> spawn(const std::string& name,
                                   const std::string& exe,
                                   const std::vector<std::string>& args,
                                   bool capture_stdout = false);

  /// Wait until every child exited or the deadline passes. Returns true
  /// when all exited.
  bool wait_all(std::chrono::milliseconds timeout);

  /// SIGKILL every still-running child (idempotent).
  void kill_all();

  /// Everything the child wrote to its captured stdout (empty when the
  /// child was spawned without capture). Call after the child exited.
  std::string drain_stdout(std::size_t index);

  const std::vector<Child>& children() const { return children_; }
  /// True when every child exited with code 0.
  bool all_succeeded() const;
  /// "name exited 3, name killed by signal" — for error messages.
  std::string failure_summary() const;

 private:
  void reap_nonblocking();
  std::vector<Child> children_;
};

}  // namespace mwsec::orchestrate
