// Ablation: the condensed-graph engine's design choices.
//  * Firing disciplines (availability vs control vs coercion, Morrison
//    [21]) on graphs with unused branches — control-driven should win
//    when much of the graph is undemanded.
//  * Flattening cost, and flattened vs on-the-fly evaporation.
#include <benchmark/benchmark.h>

#include "webcom/engine.hpp"
#include "webcom/flatten.hpp"

namespace {

using namespace mwsec;
using namespace mwsec::webcom;

const OperationRegistry& reg() {
  static OperationRegistry r = OperationRegistry::with_builtins();
  return r;
}

/// A graph where only `demanded` of `total` branch chains feed the exit;
/// the rest are speculative work.
Graph branchy_graph(int total, int demanded, int chain_len) {
  Graph g;
  std::vector<NodeId> heads;
  for (int b = 0; b < total; ++b) {
    NodeId prev = g.add_constant("c" + std::to_string(b), "seed");
    for (int i = 0; i < chain_len; ++i) {
      NodeId h = g.add_node("h" + std::to_string(b) + "_" + std::to_string(i),
                            "sha.hex", 1);
      g.connect(prev, h, 0).ok();
      prev = h;
    }
    heads.push_back(prev);
  }
  NodeId join = g.add_node("join", "concat", static_cast<std::size_t>(demanded));
  for (int i = 0; i < demanded; ++i) {
    g.connect(heads[static_cast<std::size_t>(i)], join,
              static_cast<std::size_t>(i))
        .ok();
  }
  g.set_exit(join).ok();
  return g;
}

void BM_Ablation_FiringMode(benchmark::State& state) {
  auto mode = static_cast<FiringMode>(state.range(0));
  // 16 branches, only 4 demanded, chains of 8 hashes.
  Graph g = branchy_graph(16, 4, 8);
  EvalStats stats;
  for (auto _ : state) {
    auto v = evaluate(g, reg(), mode, &stats);
    benchmark::DoNotOptimize(v);
  }
  switch (mode) {
    case FiringMode::kAvailability: state.SetLabel("availability"); break;
    case FiringMode::kControl: state.SetLabel("control"); break;
    case FiringMode::kCoercion: state.SetLabel("coercion"); break;
  }
  state.counters["fired_per_run"] =
      static_cast<double>(stats.nodes_fired) / state.iterations();
}
BENCHMARK(BM_Ablation_FiringMode)->Arg(0)->Arg(1)->Arg(2);

Graph condensed_pipeline(int boxes) {
  Graph sub;
  NodeId in = sub.add_node("in", "const", 1);
  NodeId h = sub.add_node("h", "sha.hex", 1);
  sub.connect(in, h, 0).ok();
  sub.set_exit(h).ok();
  sub.add_entry(in, 0).ok();

  Graph g;
  NodeId prev = g.add_constant("c", "seed");
  for (int i = 0; i < boxes; ++i) {
    NodeId box = g.add_condensed("box" + std::to_string(i), sub);
    g.connect(prev, box, 0).ok();
    prev = box;
  }
  g.set_exit(prev).ok();
  return g;
}

void BM_Ablation_FlattenCost(benchmark::State& state) {
  Graph g = condensed_pipeline(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flatten(g));
  }
  state.counters["condensations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Ablation_FlattenCost)->RangeMultiplier(4)->Range(4, 64);

void BM_Ablation_EvaporateOnTheFly(benchmark::State& state) {
  Graph g = condensed_pipeline(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(g, reg()));
  }
}
BENCHMARK(BM_Ablation_EvaporateOnTheFly);

void BM_Ablation_EvaluateFlattened(benchmark::State& state) {
  Graph g = flatten(condensed_pipeline(32)).take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(g, reg()));
  }
}
BENCHMARK(BM_Ablation_EvaluateFlattened);

}  // namespace
