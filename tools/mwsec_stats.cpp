// mwsec-stats — dump the observability registry, causal traces and SLO
// reports for representative mediation runs.
//
//   mwsec-stats demo [--json]
//       run the Figure 10 stacked-authorisation scenario with metrics and
//       tracing enabled, then dump the metrics registry (text, or one
//       JSON object with --json) followed by the decision spans as JSONL.
//   mwsec-stats trace [--revocation] [--jsonl]
//       run the live-revocation scenario (a sync::Authority feeding a
//       WebCom master and two clients, all three policy replicas) and
//       print the merged causal trees with per-hop latencies:
//       sync.publish → net.deliver → sync.apply → authz.verdict_flip.
//       --revocation restricts output to the revocation fan-out trace(s);
//       --jsonl prints the raw spans instead of trees.
//   mwsec-stats serve --once [--out PATH]
//       the same scenario, exported once in OpenMetrics text format (to
//       stdout, or atomically to PATH) — point promtool or a scraper's
//       file-sd at it.
//   mwsec-stats slo [--out PATH] [--check]
//       evaluate the default SLOs (obs::default_slo_objectives) against
//       the scenario's metrics + traces and print the report JSON.
//       --check exits nonzero when any objective fails (the CI gate).
//
// The same dump paths (obs::render_text / render_json /
// render_openmetrics / Tracer::to_jsonl) are what
// examples/secure_metacomputing and the bench binaries
// (MWSEC_METRICS_OUT) use; this tool exists so the formats can be
// inspected without building a workflow first.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "authz/keynote_authorizer.hpp"
#include "authz/middleware_authorizer.hpp"
#include "authz/stack.hpp"
#include "net/network.hpp"
#include "middleware/common/audit.hpp"
#include "middleware/corba/orb.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "rbac/fixtures.hpp"
#include "stack/layers.hpp"
#include "stack/os.hpp"
#include "sync/authority.hpp"
#include "translate/directory.hpp"
#include "translate/rbac_to_keynote.hpp"
#include "webcom/scheduler.hpp"

using namespace mwsec;
using namespace std::chrono_literals;

namespace {

/// The layers_test rig, condensed: OS + CORBA + KeyNote over the paper's
/// Figure 1 Salaries policy, exercised with a mix of permitted and
/// denied requests so every metric and span kind shows up in the dump.
void run_demo(middleware::AuditLog& audit) {
  static crypto::KeyRing ring(/*seed=*/9321, /*modulus_bits=*/256);
  stack::OsSecurity os;
  for (const char* u : {"Alice", "Bob", "Claire"}) os.add_account(u).ok();
  os.grant("Bob", "SalariesDB", "read").ok();
  os.grant("Bob", "SalariesDB", "write").ok();
  os.grant("Alice", "SalariesDB", "write").ok();

  middleware::corba::Orb orb("unixhost", "orb1");
  orb.define_interface({"SalariesDB", "", {"read", "write"}}).ok();
  orb.define_role("Clerk").ok();
  orb.define_role("Manager").ok();
  orb.grant("Clerk", "SalariesDB", "write").ok();
  orb.grant("Manager", "SalariesDB", "read").ok();
  orb.grant("Manager", "SalariesDB", "write").ok();
  orb.add_user_to_role("Alice", "Clerk").ok();
  orb.add_user_to_role("Bob", "Manager").ok();

  keynote::CompiledStore store;
  translate::KeyRingDirectory directory(ring);
  auto compiled = translate::compile_policy_signed(
                      rbac::salaries_policy(), ring.identity("KWebCom"),
                      directory)
                      .take();
  store.add_policy(compiled.policy).ok();
  for (const auto& cred : compiled.membership_credentials) {
    store.add_credential(cred).ok();
  }

  authz::Stack authorizer(authz::Composition::kAllMustPermit, &audit);
  authorizer.push(std::make_shared<stack::OsLayer>(os));
  authorizer.push(std::make_shared<authz::MiddlewareAuthorizer>(orb));
  authorizer.push(std::make_shared<authz::KeyNoteAuthorizer>(store));

  auto request = [&](const std::string& user, const std::string& perm,
                     const std::string& domain, const std::string& role) {
    authz::Request r;
    r.user = user;
    r.principal = directory.principal_of(user);
    r.object_type = "SalariesDB";
    r.permission = perm;
    r.domain = domain;
    r.role = role;
    return r;
  };
  authorizer.permitted(request("Bob", "read", "Finance", "Manager"));
  authorizer.permitted(request("Alice", "write", "Finance", "Clerk"));
  authorizer.permitted(request("Alice", "read", "Finance", "Clerk"));
  authorizer.permitted(request("Mallory", "read", "Finance", "Manager"));
}

// ---------------------------------------------------------------------------
// The live-revocation scenario: the revocation_liveness_test rig, without
// loss, with every party a policy replica. An authority publishes the
// WebCom trust root and a manager credential for Fred; a master and two
// clients subscribe (three replicas: m.sync, c0.sync, c1.sync); the graph
// runs a few times (cache warm-up), the credential is revoked, and the
// next round is denied. Everything it does lands in the global registry
// and tracer for the caller to dump.

crypto::KeyRing& scenario_ring() {
  static crypto::KeyRing r(/*seed=*/2704, /*modulus_bits=*/256);
  return r;
}

std::string webcom_root() {
  return "Authorizer: POLICY\nLicensees: \"" +
         scenario_ring().principal("KWebCom") +
         "\"\nConditions: app_domain == \"WebCom\";\n";
}

keynote::Assertion finance_manager(const std::string& from,
                                   const std::string& to) {
  return keynote::AssertionBuilder()
      .authorizer("\"" + scenario_ring().principal(from) + "\"")
      .licensees("\"" + scenario_ring().principal(to) + "\"")
      .conditions(
          "app_domain == \"WebCom\" && Domain == \"Finance\" && "
          "Role == \"Manager\"")
      .build_signed(scenario_ring().identity(from))
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

bool run_revocation_scenario(std::string& error) {
  auto& ring = scenario_ring();
  net::Network::Options nopts;
  nopts.seed = 271828;  // deterministic, no loss: the tool's output is stable
  net::Network network(nopts);

  keynote::CompiledStore admin_store;
  sync::Authority::Options aopts;
  aopts.poll_interval = 2ms;
  aopts.retransmit_interval = 15ms;
  sync::Authority authority(network, "admin", admin_store, aopts);
  if (!authority.start().ok()) {
    error = "authority failed to start";
    return false;
  }
  if (!authority.publish_policy_text(webcom_root()).ok() ||
      !authority.publish_credential(finance_manager("KWebCom", "Kfred"))
           .ok()) {
    error = "initial policy publish failed";
    return false;
  }

  const auto& master_id = ring.identity("KMaster");
  webcom::MasterOptions mopts;
  mopts.task_timeout = 150ms;
  webcom::Master master(network, "m", master_id, mopts);
  sync::Replica::Options ropts;
  ropts.poll_interval = 2ms;
  ropts.heartbeat_interval = 15ms;
  if (!master.subscribe_policy("admin", ropts).ok()) {
    error = "master subscribe failed";
    return false;
  }

  // Two clients, both policy replicas (the fan-out targets). Client-side
  // authorisation of the master is not what this scenario demonstrates,
  // so it is disabled; the master-side decision over the replicated trust
  // root is the one that flips.
  webcom::ClientOptions c0opts;
  c0opts.security_enabled = false;
  c0opts.domain = "Finance";
  c0opts.role = "Manager";
  c0opts.user = "Fred";
  webcom::Client c0(network, "c0", ring.identity("Kfred"),
                    webcom::OperationRegistry::with_builtins(), c0opts);
  webcom::ClientOptions c1opts;
  c1opts.security_enabled = false;
  c1opts.domain = "Finance";
  c1opts.role = "Clerk";
  c1opts.user = "Ginger";
  webcom::Client c1(network, "c1", ring.identity("Kginger"),
                    webcom::OperationRegistry::with_builtins(), c1opts);
  for (webcom::Client* c : {&c0, &c1}) {
    if (!c->subscribe_policy("admin", ropts).ok() || !c->start().ok()) {
      error = "client failed to start";
      return false;
    }
  }
  if (!master
           .attach_client({"c0", ring.principal("Kfred"), {}, "Finance",
                           "Manager", "Fred"})
           .ok() ||
      !master
           .attach_client({"c1", ring.principal("Kginger"), {}, "Finance",
                           "Clerk", "Ginger"})
           .ok()) {
    error = "attach failed";
    return false;
  }

  auto all_replicas_at = [&](std::uint64_t epoch) {
    return master.policy_replica()->wait_for_epoch(epoch, 5s) &&
           c0.policy_replica()->wait_for_epoch(epoch, 5s) &&
           c1.policy_replica()->wait_for_epoch(epoch, 5s);
  };
  if (!all_replicas_at(authority.epoch())) {
    error = "replicas failed to converge before revocation";
    return false;
  }

  // Warm rounds: Fred executes, the decision cache fills and starts
  // answering repeats (the hit-rate SLO's numerator).
  for (int round = 0; round < 4; ++round) {
    auto v = master.execute(one_task_graph());
    if (!v.ok()) {
      error = "pre-revocation execute failed: " + v.error().message;
      return false;
    }
  }

  // The revocation: one delta fanning out to all three replicas. Its
  // publish span roots the trace the `trace` subcommand reconstructs.
  if (authority.revoke_by_licensee(ring.principal("Kfred")) == 0) {
    error = "revocation removed nothing";
    return false;
  }
  if (!all_replicas_at(authority.epoch())) {
    error = "replicas failed to converge after revocation";
    return false;
  }

  // The denied round: the master's cache flushes on the moved epoch
  // (emitting authz.verdict_flip joined to the replica's apply) and no
  // client is authorised any more.
  auto denied = master.execute(one_task_graph());
  if (denied.ok() || denied.error().code != "denied") {
    error = "post-revocation execute was not denied";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Causal-tree printer.

bool is_revocation_root(const obs::SpanRecord& rec) {
  if (rec.name != "sync.publish") return false;
  const std::string* kind = rec.attr("kind");
  return kind != nullptr && kind->rfind("revoke", 0) == 0;
}

void print_span_tree(const std::map<std::uint64_t, obs::SpanRecord>& by_id,
                     const std::map<std::uint64_t, std::vector<std::uint64_t>>&
                         children,
                     std::uint64_t id, std::uint64_t t0, int depth) {
  const obs::SpanRecord& rec = by_id.at(id);
  std::string attrs;
  for (const auto& [k, v] : rec.attrs) {
    attrs += " " + k + "=" + v;
  }
  // Per-hop latency: offset from the trace root's start, plus the span's
  // own duration — enough to read the fan-out's timing off one tree.
  std::printf("%*s%s +%.1fus [%.1fus]%s%s%s\n", depth * 2, "",
              rec.name.c_str(), double(rec.start_ns - t0) / 1e3,
              double(rec.duration_ns) / 1e3,
              rec.status.empty() ? "" : " status=", rec.status.c_str(),
              attrs.c_str());
  auto it = children.find(id);
  if (it == children.end()) return;
  for (std::uint64_t child : it->second) {
    print_span_tree(by_id, children, child, t0, depth + 1);
  }
}

/// Group spans by trace, rebuild each parent/child tree and print it.
/// `only_revocation` restricts to traces rooted in a revocation publish.
void print_trace_trees(const std::vector<obs::SpanRecord>& spans,
                       bool only_revocation) {
  std::map<std::uint64_t, std::vector<const obs::SpanRecord*>> by_trace;
  for (const auto& rec : spans) {
    by_trace[rec.trace_id].push_back(&rec);
  }
  for (auto& [trace_id, records] : by_trace) {
    if (only_revocation &&
        std::none_of(records.begin(), records.end(),
                     [](const obs::SpanRecord* r) {
                       return is_revocation_root(*r);
                     })) {
      continue;
    }
    std::map<std::uint64_t, obs::SpanRecord> by_id;
    for (const auto* r : records) by_id.emplace(r->id, *r);
    std::map<std::uint64_t, std::vector<std::uint64_t>> children;
    std::vector<std::uint64_t> roots;
    std::uint64_t t0 = ~0ull;
    for (const auto* r : records) {
      t0 = std::min(t0, r->start_ns);
      // A parent outside the buffer (evicted, or still open when the
      // buffer was read) degrades that span to a root of its own.
      if (r->parent != 0 && by_id.count(r->parent) != 0) {
        children[r->parent].push_back(r->id);
      } else {
        roots.push_back(r->id);
      }
    }
    auto by_start = [&](std::uint64_t a, std::uint64_t b) {
      return by_id.at(a).start_ns < by_id.at(b).start_ns;
    };
    for (auto& [parent, kids] : children) {
      std::sort(kids.begin(), kids.end(), by_start);
    }
    std::sort(roots.begin(), roots.end(), by_start);
    std::printf("trace %llu (%zu spans)\n",
                static_cast<unsigned long long>(trace_id), records.size());
    for (std::uint64_t root : roots) {
      print_span_tree(by_id, children, root, t0, 1);
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: mwsec-stats demo [--json]\n"
               "       mwsec-stats trace [--revocation] [--jsonl]\n"
               "       mwsec-stats serve --once [--out PATH]\n"
               "       mwsec-stats slo [--out PATH] [--check]\n");
  return 2;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

int run_demo_command(int argc, char** argv) {
  const bool json = has_flag(argc, argv, "--json");
  middleware::AuditLog audit;
  run_demo(audit);
  auto snapshot = obs::Registry::global().snapshot();
  if (json) {
    std::printf("%s\n", obs::render_json(snapshot).c_str());
    return 0;
  }
  std::printf("== metrics ==\n%s", obs::render_text(snapshot).c_str());
  std::printf("\n== audit (%zu events, %zu allowed, %zu denied) ==\n",
              audit.size(), audit.allowed_count(), audit.denied_count());
  for (const auto& e : audit.events()) {
    std::printf("%-7s %-8s %-20s %s\n", e.allowed ? "permit" : "DENY",
                e.principal.c_str(), e.action.c_str(), e.detail.c_str());
  }
  std::printf("\n== decision trace (JSONL) ==\n%s",
              obs::Tracer::global().to_jsonl().c_str());
  return 0;
}

int run_trace_command(int argc, char** argv) {
  std::string error;
  if (!run_revocation_scenario(error)) {
    std::fprintf(stderr, "mwsec-stats: scenario failed: %s\n", error.c_str());
    return 1;
  }
  if (has_flag(argc, argv, "--jsonl")) {
    std::printf("%s", obs::Tracer::global().to_jsonl().c_str());
    return 0;
  }
  print_trace_trees(obs::Tracer::global().records(),
                    has_flag(argc, argv, "--revocation"));
  return 0;
}

int run_serve_command(int argc, char** argv) {
  if (!has_flag(argc, argv, "--once")) {
    std::fprintf(stderr,
                 "mwsec-stats: only one-shot export is supported; pass "
                 "--once\n");
    return 2;
  }
  std::string error;
  if (!run_revocation_scenario(error)) {
    std::fprintf(stderr, "mwsec-stats: scenario failed: %s\n", error.c_str());
    return 1;
  }
  auto snapshot = obs::Registry::global().snapshot();
  if (const char* out = flag_value(argc, argv, "--out")) {
    if (auto s = obs::write_openmetrics_file(out, snapshot); !s.ok()) {
      std::fprintf(stderr, "mwsec-stats: %s\n", s.error().message.c_str());
      return 1;
    }
    return 0;
  }
  std::printf("%s", obs::render_openmetrics(snapshot).c_str());
  return 0;
}

int run_slo_command(int argc, char** argv) {
  std::string error;
  if (!run_revocation_scenario(error)) {
    std::fprintf(stderr, "mwsec-stats: scenario failed: %s\n", error.c_str());
    return 1;
  }
  const auto objectives = obs::default_slo_objectives();
  const auto snapshot = obs::Registry::global().snapshot();
  const auto spans = obs::Tracer::global().records();
  const auto report = obs::evaluate_slo(objectives, snapshot, spans);
  const std::string json = report.to_json();
  if (const char* out = flag_value(argc, argv, "--out")) {
    std::FILE* f = std::fopen(out, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "mwsec-stats: cannot open %s\n", out);
      return 1;
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  } else {
    std::printf("%s\n", json.c_str());
  }
  if (has_flag(argc, argv, "--check") && !report.pass()) {
    for (const auto& r : report.results) {
      if (!r.pass) {
        std::fprintf(stderr, "SLO FAILED: %s (%s): %.3f vs %.3f — %s\n",
                     r.name.c_str(), r.kind.c_str(), r.value, r.threshold,
                     r.detail.c_str());
      }
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  obs::set_metrics_enabled(true);
  obs::Tracer::global().set_enabled(true);

  if (cmd == "demo") return run_demo_command(argc, argv);
  if (cmd == "trace") return run_trace_command(argc, argv);
  if (cmd == "serve") return run_serve_command(argc, argv);
  if (cmd == "slo") return run_slo_command(argc, argv);
  return usage();
}
