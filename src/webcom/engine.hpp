// Local condensed-graph evaluation engine.
//
// Three firing disciplines, after Morrison [21]:
//   * kAvailability (eager / availability-driven): every node fires as
//     soon as its operands are present — classic dataflow;
//   * kControl (lazy / control-driven): only nodes the exit transitively
//     demands fire;
//   * kCoercion (demand with speculation): the demanded spine fires, and
//     remaining available nodes are coerced opportunistically.
// All three agree on the exit value for side-effect-free operations;
// they differ in *which* nodes fire — exposed via EvalStats and tested.
#pragma once

#include <cstddef>

#include "util/result.hpp"
#include "webcom/graph.hpp"
#include "webcom/ops.hpp"

namespace mwsec::webcom {

enum class FiringMode { kAvailability, kControl, kCoercion };

struct EvalStats {
  std::size_t nodes_fired = 0;
  std::size_t condensations_evaporated = 0;
};

/// Evaluate a validated graph to its exit value.
mwsec::Result<Value> evaluate(const Graph& graph,
                              const OperationRegistry& registry,
                              FiringMode mode = FiringMode::kAvailability,
                              EvalStats* stats = nullptr);

}  // namespace mwsec::webcom
