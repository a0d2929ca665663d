#include "runner.hpp"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

constexpr std::size_t kMaxFailureNotes = 5;

}  // namespace

Runner::Runner(Rig& rig, mwsec::load::SessionBridge& bridge, const Plan& plan,
               bool slow_is_permit)
    : rig_(rig),
      bridge_(bridge),
      plan_(plan),
      slow_is_permit_(slow_is_permit) {}

void Runner::run(std::vector<Op>::const_iterator first,
                 std::vector<Op>::const_iterator last, Samples& out) {
  for (; first != last; ++first) {
    const Op& op = *first;
    switch (op.kind) {
      case OpKind::kDecide:
        decide(op, out);
        break;
      case OpKind::kGrant:
      case OpKind::kRevoke:
        write(op, out);
        break;
      case OpKind::kStorm:
        storm(op, out);
        break;
    }
  }
}

void Runner::fail(Samples& out, std::string what) {
  ++out.failed;
  if (out.failures.size() < kMaxFailureNotes) {
    out.failures.push_back(std::move(what));
  }
}

void Runner::decide(const Op& op, Samples& out) {
  auto root = rig_.tracer().span(SpanName::kOpDecide);
  ++out.attempted;
  ++out.decides;
  const auto request = bridge_.request_for(op.principal, op.entitlement,
                                           op.action, op.forbidden);
  const bool expect =
      !op.forbidden && bridge_.expect_permit(op.principal, op.entitlement);
  const std::size_t point = rig_.route(request);
  const std::uint64_t queries = rig_.backend_queries();

  const auto t0 = Clock::now();
  const bool permitted = rig_.decide(point, op, request);
  const auto t1 = Clock::now();

  out.decide_us.push_back(us_between(t0, t1));
  out.decide_slow.push_back(slow_is_permit_
                                ? permitted
                                : rig_.backend_queries() != queries);
  out.verdicts = fnv1a(out.verdicts, permitted);
  if (permitted) ++out.permits;
  if (op.forbidden) ++out.forbidden;
  if (permitted != expect) {
    fail(out, "decide " + request.principal + " " + request.domain + "/" +
                  request.role + " " + request.permission + ": got " +
                  (permitted ? "permit" : "deny"));
  }
}

bool Runner::settle(Samples& out) {
  if (auto s = rig_.settle(); !s.ok()) {
    fail(out, "settle: " + s.error().message);
    return false;
  }
  return true;
}

bool Runner::probe(std::uint32_t principal, std::uint8_t entitlement,
                   Samples& out) {
  const auto request = bridge_.request_for(principal, entitlement, 0, false);
  const bool expect = bridge_.expect_permit(principal, entitlement);
  Op op;
  op.principal = principal;
  op.entitlement = entitlement;
  bool ok = true;
  for (std::size_t p = 0; p < rig_.points(); ++p) {
    auto span = rig_.tracer().span(SpanName::kSettleProbe);
    const bool permitted = rig_.decide(p, op, request);
    out.verdicts = fnv1a(out.verdicts, permitted);
    if (permitted != expect) {
      fail(out, "probe " + request.principal + " at point " +
                    std::to_string(p) + ": got " +
                    (permitted ? "permit" : "deny"));
      ok = false;
    }
  }
  return ok;
}

void Runner::write(const Op& op, Samples& out) {
  const bool grant = op.kind == OpKind::kGrant;
  auto root =
      rig_.tracer().span(grant ? SpanName::kOpGrant : SpanName::kOpRevoke);
  ++out.attempted;
  ++out.writes;
  const auto t0 = Clock::now();
  mwsec::Status s;
  {
    auto span = rig_.tracer().span(grant ? SpanName::kBridgeActivate
                                         : SpanName::kBridgeDeactivate);
    s = grant ? bridge_.activate(op.principal, op.entitlement)
              : bridge_.deactivate(op.principal, op.entitlement);
  }
  if (!s.ok()) {
    fail(out, std::string(grant ? "grant" : "revoke") + ": " +
                  s.error().message);
    return;
  }
  // A failed settle or probe is counted where it happens; the op still
  // ends here.
  if (settle(out)) probe(op.principal, op.entitlement, out);
  const auto t1 = Clock::now();
  (grant ? out.grant_us : out.revoke_us).push_back(us_between(t0, t1));
}

void Runner::storm(const Op& op, Samples& out) {
  auto root = rig_.tracer().span(SpanName::kOpStorm);
  ++out.attempted;
  ++out.writes;
  const auto first = plan_.victims.begin() + op.victims_begin;
  const auto last = first + op.victims_count;

  const auto t0 = Clock::now();
  std::vector<std::pair<std::uint32_t, std::uint8_t>> held;
  for (auto v = first; v != last; ++v) {
    const std::size_t n = bridge_.entitlement_count(*v);
    for (std::size_t e = 0; e < n; ++e) {
      if (bridge_.is_active(*v, e)) {
        held.emplace_back(*v, static_cast<std::uint8_t>(e));
      }
    }
  }
  for (auto v = first; v != last; ++v) {
    auto span = rig_.tracer().span(SpanName::kBridgeRevoke);
    bridge_.revoke_principal(*v);
  }
  if (settle(out)) {
    for (const auto& [v, e] : held) probe(v, e, out);
  }
  const auto t1 = Clock::now();
  out.storm_ms.push_back(us_between(t0, t1) / 1e3);
  for (auto v = first; v != last; ++v) bridge_.forgive(*v);
}

}  // namespace perfbench
