#include "webcom/engine.hpp"

#include <deque>
#include <optional>
#include <set>
#include <vector>

namespace mwsec::webcom {

namespace {

/// Fire one node given its resolved inputs. Condensed nodes evaporate:
/// the subgraph's entry ports receive the operands and the subgraph is
/// evaluated (recursively, same mode).
mwsec::Result<Value> fire_node(const Graph& graph, NodeId id,
                               const std::vector<Value>& inputs,
                               const OperationRegistry& registry,
                               FiringMode mode, EvalStats* stats);

/// The set of nodes demanded by the exit (control-driven need).
std::set<NodeId> demanded_set(const Graph& graph) {
  std::set<NodeId> needed;
  if (!graph.exit().has_value()) return needed;
  std::deque<NodeId> frontier{*graph.exit()};
  needed.insert(*graph.exit());
  while (!frontier.empty()) {
    NodeId n = frontier.front();
    frontier.pop_front();
    for (const auto& [port, producer] : graph.producers_of(n)) {
      (void)port;
      if (needed.insert(producer).second) frontier.push_back(producer);
    }
  }
  return needed;
}

mwsec::Result<Value> evaluate_impl(const Graph& graph,
                                   const OperationRegistry& registry,
                                   FiringMode mode, EvalStats* stats) {
  if (auto s = graph.validate(); !s.ok()) return s.error();
  auto order = graph.topological_order().take();

  std::set<NodeId> to_fire;
  switch (mode) {
    case FiringMode::kAvailability:
    case FiringMode::kCoercion:
      // Everything fires; coercion fires the demanded spine first (the
      // ordering below) and the rest opportunistically after.
      for (NodeId i = 0; i < graph.nodes().size(); ++i) to_fire.insert(i);
      break;
    case FiringMode::kControl:
      to_fire = demanded_set(graph);
      break;
  }

  std::vector<NodeId> firing_order;
  std::set<NodeId> speculated;  // coercion: failures here are tolerated
  if (mode == FiringMode::kCoercion) {
    // Demanded nodes first (in topological order), then the speculated
    // remainder (also topological).
    auto demanded = demanded_set(graph);
    for (NodeId n : order) {
      if (demanded.count(n)) firing_order.push_back(n);
    }
    for (NodeId n : order) {
      if (!demanded.count(n)) {
        firing_order.push_back(n);
        speculated.insert(n);
      }
    }
  } else {
    for (NodeId n : order) {
      if (to_fire.count(n)) firing_order.push_back(n);
    }
  }

  std::vector<std::optional<Value>> results(graph.nodes().size());
  for (NodeId id : firing_order) {
    const Node& node = graph.nodes()[id];
    std::vector<Value> inputs(node.arity);
    auto producers = graph.producers_of(id);
    bool operand_missing = false;
    for (std::size_t p = 0; p < node.arity && !operand_missing; ++p) {
      auto lit = node.literals.find(p);
      if (lit != node.literals.end()) {
        inputs[p] = lit->second;
      } else {
        auto prod = producers.find(p);
        if (prod == producers.end() || !results[prod->second].has_value()) {
          operand_missing = true;
        } else {
          inputs[p] = *results[prod->second];
        }
      }
    }
    if (operand_missing) {
      // Downstream of a failed speculation: skip quietly; anywhere else it
      // is a structural error.
      if (speculated.count(id)) continue;
      return Error::make("operand missing for node " + node.name, "engine");
    }
    auto value = fire_node(graph, id, inputs, registry, mode, stats);
    if (!value.ok()) {
      // A speculatively-coerced node failing must not poison the demanded
      // result.
      if (speculated.count(id)) continue;
      return value;
    }
    results[id] = std::move(value).take();
  }

  NodeId exit = *graph.exit();
  if (!results[exit].has_value()) {
    return Error::make("exit node did not fire", "engine");
  }
  return *results[exit];
}

mwsec::Result<Value> fire_node(const Graph& graph, NodeId id,
                               const std::vector<Value>& inputs,
                               const OperationRegistry& registry,
                               FiringMode mode, EvalStats* stats) {
  const Node& node = graph.nodes()[id];
  if (stats != nullptr) ++stats->nodes_fired;
  if (node.condensed != nullptr) {
    if (stats != nullptr) ++stats->condensations_evaporated;
    // Evaporate: bind operands to the subgraph's entry ports, which then
    // stop being entries (they are ordinary literal-fed ports now).
    Graph sub = *node.condensed;
    const auto entries = sub.entries();
    for (std::size_t i = 0; i < entries.size() && i < inputs.size(); ++i) {
      if (auto s = sub.set_literal(entries[i].first, entries[i].second,
                                   inputs[i]);
          !s.ok()) {
        return s.error();
      }
    }
    sub.clear_entries();
    return evaluate_impl(sub, registry, mode, stats);
  }
  return registry.invoke(node.operation, inputs);
}

}  // namespace

mwsec::Result<Value> evaluate(const Graph& graph,
                              const OperationRegistry& registry,
                              FiringMode mode, EvalStats* stats) {
  return evaluate_impl(graph, registry, mode, stats);
}

}  // namespace mwsec::webcom
