#include "orchestrate/revocation_scenario.hpp"

#include <cstdio>
#include <set>
#include <thread>

#include "keycom/service.hpp"
#include "middleware/com/catalogue.hpp"
#include "net/tcp_transport.hpp"
#include "orchestrate/process.hpp"
#include "sync/authority.hpp"
#include "webcom/scheduler.hpp"

namespace mwsec::orchestrate {

namespace {

using namespace std::chrono_literals;

constexpr const char* kRoleAdmin = "revocation-admin";
constexpr const char* kRoleReplica = "revocation-replica";
constexpr const char* kCtlEndpoint = "ctl";

// A replica resends an unacknowledged report this often; the admin stays
// up acknowledging until no report has arrived for kAdminQuiet, so an ack
// lost on the way back is answered by the next resend.
constexpr auto kReportResend = 20ms;
constexpr auto kAdminQuiet = 250ms;

// ---- deterministic scenario material (identical in every process) ----

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/2704, /*modulus_bits=*/256);
  return r;
}

std::string webcom_root() {
  return "Authorizer: POLICY\nLicensees: \"" + ring().principal("KWebCom") +
         "\"\nConditions: app_domain == \"WebCom\";\n";
}

keynote::Assertion finance_manager(const std::string& from,
                                   const std::string& to) {
  return keynote::AssertionBuilder()
      .authorizer("\"" + ring().principal(from) + "\"")
      .licensees("\"" + ring().principal(to) + "\"")
      .conditions(
          "app_domain == \"WebCom\" && Domain == \"Finance\" && "
          "Role == \"Manager\"")
      .build_signed(ring().identity(from))
      .take();
}

webcom::Graph one_task_graph() {
  webcom::Graph g;
  webcom::NodeId n = g.add_node("up", "upper", 1);
  g.set_literal(n, 0, "pay").ok();
  webcom::SecurityTarget t;
  t.object_type = "SalariesDB";
  t.permission = "Access";
  g.set_target(n, t).ok();
  g.set_exit(n).ok();
  return g;
}

// ---- role plumbing ----

struct RoleArgs {
  std::string role;
  std::uint16_t listen_port = 0;
  std::uint16_t node_id = 0;
  int index = 0;
  int replicas = 0;
  std::chrono::milliseconds timeout{30000};
  double loss = 0.0;
  std::map<std::string, std::string> routes;  ///< endpoint → "host:port"
};

std::optional<std::string> flag_value(int argc, char** argv,
                                      const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return std::nullopt;
}

/// Build a started TcpTransport for a role from its args (returns null
/// on failure, with the reason on stderr).
std::unique_ptr<net::TcpTransport> role_transport(const RoleArgs& args) {
  net::TcpOptions topts;
  topts.listen_port = args.listen_port;
  topts.fault.node_id = args.node_id;
  topts.fault.seed = 271828u + args.node_id;
  topts.fault.drop_probability = args.loss;
  auto transport = std::make_unique<net::TcpTransport>(topts);
  auto started = transport->start();
  if (!started.ok()) {
    std::fprintf(stderr, "[%s] transport start failed: %s\n",
                 args.role.c_str(), started.error().message.c_str());
    return nullptr;
  }
  for (const auto& [name, addr] : args.routes) {
    const std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos) continue;
    transport->add_route(
        name, addr.substr(0, colon),
        static_cast<std::uint16_t>(std::stoul(addr.substr(colon + 1))));
  }
  // Give merged trace exports per-process span-id uniqueness, mirroring
  // the transport's message-id prefix.
  obs::Tracer::global().set_id_prefix(args.node_id);
  return transport;
}

// ---- the admin role ----

int run_admin(const RoleArgs& args) {
  auto transport = role_transport(args);
  if (transport == nullptr) return 4;

  auto ctl = transport->open(kCtlEndpoint);
  if (!ctl.ok()) return 4;

  keynote::CompiledStore admin_store;
  sync::Authority::Options aopts;
  aopts.poll_interval = 2ms;
  aopts.retransmit_interval = 15ms;
  sync::Authority authority(*transport, "admin", admin_store, aopts);
  if (!authority.start().ok()) return 4;
  if (!authority.publish_policy_text(webcom_root()).ok()) return 4;

  middleware::AuditLog audit;
  middleware::com::Catalogue catalogue("winsrv", "Finance", &audit);
  keycom::Service service(catalogue, &audit);
  if (!service.trust_root().add_policy_text(webcom_root()).ok()) return 4;
  service.set_publisher(&authority);
  service.register_principal("Fred", ring().principal("Kfred"));

  // Commission Fred up front; replicas catch up through anti-entropy
  // whenever they come online.
  keycom::UpdateRequest commission;
  commission.add_assignments.push_back({"Finance", "Manager", "Fred"});
  commission.credentials = finance_manager("KWebCom", "Kclaire").to_text() +
                           "\n" + finance_manager("Kclaire", "Kfred").to_text();
  commission.sign(ring().identity("Kfred"));
  auto report = service.apply(commission);
  if (!report.ok() || !report->fully_applied()) {
    std::fprintf(stderr, "[admin] commission failed\n");
    return 4;
  }

  const auto started = std::chrono::steady_clock::now();
  const auto deadline = started + args.timeout;

  // Barrier: every replica reports its phase over the transport itself,
  // and every report is acknowledged, whichever phase it names. An ack
  // that fails to go out is repaired by the replica's next resend.
  auto acknowledge = [&](const net::Message& m) {
    (*ctl)->send(m.from, "ack-" + m.subject, {}).ok();
  };
  auto collect = [&](const std::string& phase) -> bool {
    std::set<std::string> seen;  // dedupe — replicas resend until acked
    while (static_cast<int>(seen.size()) < args.replicas) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      auto m = (*ctl)->receive(100ms);
      if (!m.has_value()) continue;
      acknowledge(*m);
      if (m->subject == phase) seen.insert(m->from);
    }
    return true;
  };

  if (!collect("permit")) {
    std::fprintf(stderr, "[admin] timeout waiting for permits\n");
    return 2;
  }

  // Figure 8's revocation path, now fanning out over real sockets.
  keycom::UpdateRequest withdraw;
  withdraw.remove_assignments.push_back({"Finance", "Manager", "Fred"});
  withdraw.sign(ring().identity("KWebCom"));
  auto wreport = service.apply(withdraw);
  if (!wreport.ok() || wreport->assignments_removed != 1) {
    std::fprintf(stderr, "[admin] withdraw failed\n");
    return 4;
  }

  if (!collect("denied")) {
    std::fprintf(stderr, "[admin] timeout waiting for denials\n");
    return 3;
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);

  // Answer resends until the replicas fall quiet: each stops resending
  // once its ack arrives, so silence means every replica has one.
  while (auto m = (*ctl)->receive(kAdminQuiet)) acknowledge(*m);

  // The summary line the parent parses into a ScenarioReport.
  std::printf("permits=%d denieds=%d elapsed_ms=%lld\n", args.replicas,
              args.replicas,
              static_cast<long long>(elapsed.count()));
  std::fflush(stdout);
  return 0;
}

// ---- the replica role ----

int run_replica(const RoleArgs& args) {
  auto transport = role_transport(args);
  if (transport == nullptr) return 4;
  const std::string suffix = std::to_string(args.index);

  // The WebCom master whose trust root is a live replica of the admin
  // store, exactly as in the single-process wiring — only the transport
  // under the subscription changed.
  const auto& master_id = ring().identity("KMaster");
  webcom::MasterOptions mopts;
  mopts.task_timeout = 150ms;
  webcom::Master master(*transport, "m" + suffix, master_id, mopts);
  sync::Replica::Options ropts;
  ropts.poll_interval = 2ms;
  ropts.heartbeat_interval = 15ms;
  if (!master.subscribe_policy("admin", ropts).ok()) return 4;

  // Fred's client attaches once and never re-attaches.
  const auto& fred = ring().identity("Kfred");
  webcom::ClientOptions copts;
  copts.domain = "Finance";
  copts.role = "Manager";
  copts.user = "Fred";
  webcom::Client client(*transport, "c" + suffix, fred,
                        webcom::OperationRegistry::with_builtins(), copts);
  if (!client.store()
           .add_policy_text("Authorizer: POLICY\nLicensees: \"" +
                            master_id.principal() +
                            "\"\nConditions: app_domain == \"WebCom\";\n")
           .ok()) {
    return 4;
  }
  if (!client.start().ok()) return 4;
  webcom::ClientInfo info{"c" + suffix, fred.principal(), {}, "Finance",
                          "Manager", "Fred"};
  if (!master.attach_client(info).ok()) return 4;

  auto report = transport->open("r" + suffix);
  if (!report.ok()) return 4;
  const auto deadline = std::chrono::steady_clock::now() + args.timeout;

  // Report `phase` to the barrier, resending until the admin acks it.
  auto report_phase = [&](const std::string& phase) -> bool {
    const std::string ack = "ack-" + phase;
    while (std::chrono::steady_clock::now() < deadline) {
      if (!(*report)->send(kCtlEndpoint, phase, {}).ok()) return false;
      const auto resend_at = std::chrono::steady_clock::now() + kReportResend;
      while (auto m = (*report)->receive(kReportResend)) {
        if (m->subject == ack) return true;
        if (std::chrono::steady_clock::now() >= resend_at) break;
      }
    }
    std::fprintf(stderr, "[r%s] no ack for %s\n", suffix.c_str(),
                 phase.c_str());
    return false;
  };

  // Phase 1: execute until the commissioned membership reaches this
  // process's replica and the task is permitted.
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "[r%s] timeout waiting for permit\n",
                   suffix.c_str());
      return 2;
    }
    auto v = master.execute(one_task_graph());
    if (v.ok()) {
      if (*v != "PAY") {
        std::fprintf(stderr, "[r%s] wrong result: %s\n", suffix.c_str(),
                     v->c_str());
        return 4;
      }
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  if (!report_phase("permit")) return 4;

  // Phase 2: the withdrawal flips the same, still-attached client to
  // denied on a subsequent round — revocation liveness across processes.
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "[r%s] timeout waiting for denial\n",
                   suffix.c_str());
      return 3;
    }
    auto v = master.execute(one_task_graph());
    if (!v.ok() && v.error().code == "denied") break;
    std::this_thread::sleep_for(10ms);
  }
  if (!report_phase("denied")) return 4;
  return 0;
}

}  // namespace

std::optional<int> maybe_run_role(int argc, char** argv) {
  auto role = flag_value(argc, argv, "mwsec-role");
  if (!role.has_value()) return std::nullopt;

  RoleArgs args;
  args.role = *role;
  if (auto v = flag_value(argc, argv, "mwsec-listen")) {
    args.listen_port = static_cast<std::uint16_t>(std::stoul(*v));
  }
  if (auto v = flag_value(argc, argv, "mwsec-node")) {
    args.node_id = static_cast<std::uint16_t>(std::stoul(*v));
  }
  if (auto v = flag_value(argc, argv, "mwsec-index")) {
    args.index = std::stoi(*v);
  }
  if (auto v = flag_value(argc, argv, "mwsec-replicas")) {
    args.replicas = std::stoi(*v);
  }
  if (auto v = flag_value(argc, argv, "mwsec-timeout-ms")) {
    args.timeout = std::chrono::milliseconds(std::stol(*v));
  }
  if (auto v = flag_value(argc, argv, "mwsec-loss")) {
    args.loss = std::stod(*v);
  }
  if (auto v = flag_value(argc, argv, "mwsec-routes")) {
    args.routes = decode_routes(*v);
  }

  if (args.role == kRoleAdmin) return run_admin(args);
  if (args.role == kRoleReplica) return run_replica(args);
  std::fprintf(stderr, "unknown --mwsec-role=%s\n", args.role.c_str());
  return 64;
}

mwsec::Result<ScenarioReport> run_revocation_scenario(
    const std::string& exe, const ScenarioOptions& options) {
  if (exe.empty()) {
    return Error::make("orchestrate: no executable to re-exec", "orchestrate");
  }
  const auto started = std::chrono::steady_clock::now();

  // The port plan: every process learns every peer's address up front.
  const std::uint16_t admin_port = pick_unused_port();
  std::vector<std::uint16_t> replica_ports;
  for (int i = 0; i < options.replicas; ++i) {
    replica_ports.push_back(pick_unused_port());
  }
  const std::string admin_addr = "127.0.0.1:" + std::to_string(admin_port);

  const std::string timeout_arg =
      "--mwsec-timeout-ms=" + std::to_string(options.timeout.count());
  const std::string loss_arg =
      "--mwsec-loss=" + std::to_string(options.drop_probability);

  ProcessGroup group;

  // Admin routes: the authority pushes deltas to each process's policy
  // replica, named "m<i>.sync" by webcom::Master::subscribe_policy, and
  // the barrier acks each replica's report endpoint "r<i>".
  std::map<std::string, std::string> admin_routes;
  for (int i = 0; i < options.replicas; ++i) {
    const std::string addr = "127.0.0.1:" + std::to_string(replica_ports[i]);
    admin_routes["m" + std::to_string(i) + ".sync"] = addr;
    admin_routes["r" + std::to_string(i)] = addr;
  }
  auto admin = group.spawn(
      "admin", exe,
      {std::string("--mwsec-role=") + kRoleAdmin,
       "--mwsec-listen=" + std::to_string(admin_port), "--mwsec-node=1",
       "--mwsec-replicas=" + std::to_string(options.replicas),
       "--mwsec-routes=" + encode_routes(admin_routes), timeout_arg, loss_arg},
      /*capture_stdout=*/true);
  if (!admin.ok()) return admin.error();

  // Replica routes: subscribe to the authority, report to the barrier.
  for (int i = 0; i < options.replicas; ++i) {
    std::map<std::string, std::string> routes;
    routes["admin"] = admin_addr;
    routes[kCtlEndpoint] = admin_addr;
    auto spawned = group.spawn(
        "r" + std::to_string(i), exe,
        {std::string("--mwsec-role=") + kRoleReplica,
         "--mwsec-listen=" + std::to_string(replica_ports[i]),
         "--mwsec-node=" + std::to_string(i + 2),
         "--mwsec-index=" + std::to_string(i),
         "--mwsec-routes=" + encode_routes(routes), timeout_arg, loss_arg});
    if (!spawned.ok()) {
      group.kill_all();
      return spawned.error();
    }
  }

  // Roles deadline themselves at options.timeout; the slack covers
  // process startup and teardown.
  if (!group.wait_all(options.timeout + std::chrono::seconds(10))) {
    group.kill_all();
    return Error::make(
        "orchestrate: scenario timed out: " + group.failure_summary(),
        "orchestrate");
  }
  if (!group.all_succeeded()) {
    return Error::make(
        "orchestrate: scenario failed: " + group.failure_summary(),
        "orchestrate");
  }

  ScenarioReport report;
  report.replicas = options.replicas;
  report.elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  const std::string summary = group.drain_stdout(*admin);
  auto parse_int = [&](const std::string& key) -> int {
    const std::size_t pos = summary.find(key + "=");
    if (pos == std::string::npos) return 0;
    return std::atoi(summary.c_str() + pos + key.size() + 1);
  };
  report.permits = parse_int("permits");
  report.denieds = parse_int("denieds");
  return report;
}

}  // namespace mwsec::orchestrate
