// The closed loop: one load thread executes the plan's ops in order,
// each op blocking until its decision points have answered, and checks
// every verdict against the SessionBridge's ground truth.
//
//   decide — one request at the principal's decision point; the verdict
//            must be permit iff the instance is active and the permission
//            is not the forbidden one.
//   grant / revoke — a session (de)activation through the bridge (rbac
//            session -> translate mint -> admission or removal), then
//            settle (replicas converge, snapshots rebuild) and a probe at
//            every decision point that must permit / deny. The op ends
//            when the last probe answers.
//   storm  — revoke_principal for each victim, settle, then a probe of
//            every instance the victims held at every decision point; all
//            must deny. Victims are forgiven after the op is timed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/session_bridge.hpp"
#include "plan.hpp"
#include "rigs.hpp"

namespace perfbench {

struct Samples {
  std::vector<double> decide_us;
  /// Per decide: 1 when it took the costlier regime — a cache miss, or on
  /// webcom-schedule a permit (dispatched to a client).
  std::vector<std::uint8_t> decide_slow;
  std::vector<double> grant_us;
  std::vector<double> revoke_us;
  std::vector<double> storm_ms;
  std::uint64_t decides = 0;
  std::uint64_t permits = 0;
  std::uint64_t forbidden = 0;
  std::uint64_t writes = 0;  ///< grants + revokes + storms
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verdicts = kFnvOffset;  ///< digest of every verdict seen
  std::vector<std::string> failures;    ///< the first few, for stderr
};

class Runner {
 public:
  Runner(Rig& rig, mwsec::load::SessionBridge& bridge, const Plan& plan,
         bool slow_is_permit);

  void run(std::vector<Op>::const_iterator first,
           std::vector<Op>::const_iterator last, Samples& out);

 private:
  void decide(const Op& op, Samples& out);
  void write(const Op& op, Samples& out);
  void storm(const Op& op, Samples& out);
  /// Probe (principal, entitlement) at every decision point.
  bool probe(std::uint32_t principal, std::uint8_t entitlement, Samples& out);
  bool settle(Samples& out);
  void fail(Samples& out, std::string what);

  Rig& rig_;
  mwsec::load::SessionBridge& bridge_;
  const Plan& plan_;
  bool slow_is_permit_;
};

}  // namespace perfbench
