#include "webcom/engine.hpp"

#include <gtest/gtest.h>

namespace mwsec::webcom {
namespace {

const OperationRegistry& reg() {
  static OperationRegistry r = OperationRegistry::with_builtins();
  return r;
}

/// (2 + 3) * 4 as a diamond-ish graph.
Graph arithmetic_graph() {
  Graph g;
  NodeId two = g.add_constant("two", "2");
  NodeId three = g.add_constant("three", "3");
  NodeId sum = g.add_node("sum", "add", 2);
  NodeId product = g.add_node("product", "mul", 2);
  g.connect(two, sum, 0).ok();
  g.connect(three, sum, 1).ok();
  g.connect(sum, product, 0).ok();
  g.set_literal(product, 1, "4").ok();
  g.set_exit(product).ok();
  return g;
}

TEST(Engine, EvaluatesArithmetic) {
  auto v = evaluate(arithmetic_graph(), reg());
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "20");
}

TEST(Engine, AllModesAgreeOnExitValue) {
  for (auto mode : {FiringMode::kAvailability, FiringMode::kControl,
                    FiringMode::kCoercion}) {
    auto v = evaluate(arithmetic_graph(), reg(), mode);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "20");
  }
}

TEST(Engine, ControlModeSkipsUndemandedNodes) {
  Graph g = arithmetic_graph();
  // An extra node nobody demands.
  NodeId orphan = g.add_node("orphan", "upper", 1);
  g.set_literal(orphan, 0, "idle").ok();

  EvalStats eager, lazy, coerced;
  ASSERT_TRUE(evaluate(g, reg(), FiringMode::kAvailability, &eager).ok());
  ASSERT_TRUE(evaluate(g, reg(), FiringMode::kControl, &lazy).ok());
  ASSERT_TRUE(evaluate(g, reg(), FiringMode::kCoercion, &coerced).ok());
  EXPECT_EQ(eager.nodes_fired, 5u);
  EXPECT_EQ(lazy.nodes_fired, 4u);   // orphan not demanded
  EXPECT_EQ(coerced.nodes_fired, 5u);  // speculated anyway
}

TEST(Engine, AvailabilityModeFailsOnAnyNodeError) {
  Graph g = arithmetic_graph();
  NodeId bad = g.add_node("bad", "add", 2);
  g.set_literal(bad, 0, "x").ok();
  g.set_literal(bad, 1, "1").ok();
  EXPECT_FALSE(evaluate(g, reg(), FiringMode::kAvailability).ok());
  // Control-driven never touches the bad node.
  EXPECT_TRUE(evaluate(g, reg(), FiringMode::kControl).ok());
  // Coercion speculates on it but tolerates the failure.
  auto v = evaluate(g, reg(), FiringMode::kCoercion);
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "20");
}

TEST(Engine, DemandedFailureIsFatalInEveryMode) {
  Graph g;
  NodeId bad = g.add_node("bad", "add", 2);
  g.set_literal(bad, 0, "x").ok();
  g.set_literal(bad, 1, "1").ok();
  g.set_exit(bad).ok();
  for (auto mode : {FiringMode::kAvailability, FiringMode::kControl,
                    FiringMode::kCoercion}) {
    EXPECT_FALSE(evaluate(g, reg(), mode).ok());
  }
}

TEST(Engine, InvalidGraphRejected) {
  Graph g;
  g.add_node("a", "f", 1);
  EXPECT_FALSE(evaluate(g, reg()).ok());
}

TEST(Engine, UnknownOperationPropagates) {
  Graph g;
  NodeId a = g.add_node("a", "warp", 0);
  g.set_exit(a).ok();
  auto v = evaluate(g, reg());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, "ops");
}

TEST(Engine, CondensedNodeEvaporates) {
  // Subgraph computing upper(concat(x, "!")) with one entry port.
  Graph sub;
  NodeId in = sub.add_node("in", "const", 1);
  NodeId bang = sub.add_node("bang", "concat", 2);
  NodeId up = sub.add_node("up", "upper", 1);
  sub.connect(in, bang, 0).ok();
  sub.set_literal(bang, 1, "!").ok();
  sub.connect(bang, up, 0).ok();
  sub.set_exit(up).ok();
  sub.add_entry(in, 0).ok();

  Graph g;
  NodeId c = g.add_constant("c", "hi");
  NodeId boxed = g.add_condensed("boxed", sub);
  g.connect(c, boxed, 0).ok();
  g.set_exit(boxed).ok();

  EvalStats stats;
  auto v = evaluate(g, reg(), FiringMode::kAvailability, &stats);
  ASSERT_TRUE(v.ok()) << v.error().message;
  EXPECT_EQ(*v, "HI!");
  EXPECT_EQ(stats.condensations_evaporated, 1u);
  EXPECT_EQ(stats.nodes_fired, 2u + 3u);  // outer const+boxed, inner 3
}

TEST(Engine, NestedCondensations) {
  // inner: add(x, 1); middle wraps inner; outer feeds 41.
  Graph inner;
  NodeId iin = inner.add_node("iin", "const", 1);
  NodeId inc = inner.add_node("inc", "add", 2);
  inner.connect(iin, inc, 0).ok();
  inner.set_literal(inc, 1, "1").ok();
  inner.set_exit(inc).ok();
  inner.add_entry(iin, 0).ok();

  Graph middle;
  NodeId min_ = middle.add_node("min", "const", 1);
  NodeId mbox = middle.add_condensed("mbox", inner);
  middle.connect(min_, mbox, 0).ok();
  middle.set_exit(mbox).ok();
  middle.add_entry(min_, 0).ok();

  Graph outer;
  NodeId c = outer.add_constant("c", "41");
  NodeId obox = outer.add_condensed("obox", middle);
  outer.connect(c, obox, 0).ok();
  outer.set_exit(obox).ok();

  EvalStats stats;
  auto v = evaluate(outer, reg(), FiringMode::kAvailability, &stats);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "42");
  EXPECT_EQ(stats.condensations_evaporated, 2u);
}

}  // namespace
}  // namespace mwsec::webcom
