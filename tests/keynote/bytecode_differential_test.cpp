// Randomized differential test: the bytecode VM engine (via evaluate()
// and Snapshot::query()) must agree with the reference tree-walking
// evaluator on generated stores exercising nested delegation, the full
// Conditions operator surface (string/int/float comparisons, arithmetic
// including division-by-zero error paths, concat, regex with constant and
// dynamic patterns, $-indirection, subprograms, `-> value` outcomes with
// multi-valued compliance sets) and local constants. A second case drives
// one CompiledStore through random interleavings of every mutator,
// snapshot_with and acquire(), checking each query against the reference
// over the store's live contents. Every case is seeded and replayable: a
// failure message names the seed, and re-running with that GTest
// parameter reproduces it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "keynote/compiled_store.hpp"
#include "keynote/query.hpp"
#include "util/rng.hpp"

namespace mwsec::keynote {
namespace {

using util::Rng;

constexpr int kPrincipals = 10;

std::string principal(Rng& rng) {
  return "K" + std::to_string(rng.below(kPrincipals));
}

std::string random_licensees(Rng& rng, int depth = 0) {
  if (depth >= 3 || rng.chance(0.4)) {
    return "\"" + principal(rng) + "\"";
  }
  if (rng.chance(0.2)) {
    std::size_t n = 2 + rng.below(3);
    std::size_t k = 1 + rng.below(n);
    std::string out = std::to_string(k) + "-of(";
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out += ",";
      out += "\"" + principal(rng) + "\"";
    }
    return out + ")";
  }
  std::string l = random_licensees(rng, depth + 1);
  std::string r = random_licensees(rng, depth + 1);
  return "(" + l + (rng.chance(0.5) ? " && " : " || ") + r + ")";
}

// Environment attributes a..e carry values that are sometimes numeric,
// sometimes not, and sometimes name other attributes — so generated
// programs hit parse errors, division by zero, bad dynamic regexes and
// $-indirection misses as well as the happy paths.
const char* kAttrValues[] = {"0", "1", "2", "3", "10", "x",
                             "notnum", "", "b", "(unclosed", "^a"};

std::string attr_name(Rng& rng) {
  return std::string(1, static_cast<char>('a' + rng.below(5)));
}

std::string rel_op(Rng& rng) {
  static const char* ops[] = {"==", "!=", "<", ">", "<=", ">="};
  return ops[rng.below(6)];
}

std::string random_num_expr(Rng& rng, int depth = 0) {
  if (depth >= 2 || rng.chance(0.5)) {
    switch (rng.below(3)) {
      case 0: return "@" + attr_name(rng);
      case 1: return "&" + attr_name(rng);
      default: return std::to_string(rng.below(5));
    }
  }
  static const char* arith[] = {"+", "-", "*", "/", "%"};
  std::string l = random_num_expr(rng, depth + 1);
  std::string r = random_num_expr(rng, depth + 1);
  std::string e = "(" + l + " " + arith[rng.below(5)] + " " + r + ")";
  return rng.chance(0.1) ? "-" + e : e;
}

std::string random_str_expr(Rng& rng) {
  switch (rng.below(4)) {
    case 0: return attr_name(rng);
    case 1: return "\"" + std::string(kAttrValues[rng.below(11)]) + "\"";
    case 2: return "$" + attr_name(rng);
    default:
      return attr_name(rng) + " . " +
             (rng.chance(0.5) ? attr_name(rng)
                              : "\"" + std::to_string(rng.below(4)) + "\"");
  }
}

std::string random_test(Rng& rng, int depth = 0) {
  auto atom = [&]() -> std::string {
    switch (rng.below(5)) {
      case 0:  // string comparison (often the == "lit" guard shape)
        if (rng.chance(0.5)) {
          return attr_name(rng) + " == \"" +
                 std::to_string(rng.below(4)) + "\"";
        }
        return random_str_expr(rng) + " " + rel_op(rng) + " " +
               random_str_expr(rng);
      case 1:  // numeric comparison
        return random_num_expr(rng) + " " + rel_op(rng) + " " +
               random_num_expr(rng);
      case 2:  // regex, constant or dynamic pattern
        if (rng.chance(0.6)) {
          static const char* pats[] = {"^a", "[0-9]+", "x$", "^$", "1|2"};
          return attr_name(rng) + " ~= \"" + pats[rng.below(5)] + "\"";
        }
        return attr_name(rng) + " ~= " + attr_name(rng);
      case 3:  // local-constant reference (folds when present)
        return "lim " + rel_op(rng) + " \"" + std::to_string(rng.below(4)) +
               "\"";
      default:
        return rng.chance(0.5) ? "true" : "false";
    }
  };
  if (depth >= 2 || rng.chance(0.45)) {
    std::string t = atom();
    return rng.chance(0.15) ? "!(" + t + ")" : t;
  }
  std::string l = random_test(rng, depth + 1);
  std::string r = random_test(rng, depth + 1);
  return "(" + l + (rng.chance(0.5) ? " && " : " || ") + r + ")";
}

std::string random_program(Rng& rng, const std::vector<std::string>& values,
                           int depth = 0) {
  std::string out;
  std::size_t clauses = 1 + rng.below(3);
  for (std::size_t i = 0; i < clauses; ++i) {
    out += random_test(rng);
    double roll = rng.uniform();
    if (roll < 0.3) {
      // default outcome: no arrow
    } else if (roll < 0.75 || depth >= 1) {
      // -> value; occasionally a name outside the compliance set, which
      // must contribute nothing.
      std::string v = rng.chance(0.1) ? "bogus"
                                      : values[rng.below(values.size())];
      out += " -> \"" + v + "\"";
    } else {
      out += " -> { " + random_program(rng, values, depth + 1) + " }";
    }
    out += ";\n";
  }
  return out;
}

struct GeneratedCase {
  std::vector<Assertion> policies;
  std::vector<Assertion> credentials;
  std::vector<std::string> values;
};

std::vector<std::string> random_values(Rng& rng) {
  return rng.chance(0.5) ? std::vector<std::string>{"false", "true"}
                         : std::vector<std::string>{"no", "maybe", "yes"};
}

/// `one_line` folds the program onto one line: Assertion::to_text() does
/// not indent continuation lines, so only a one-line Conditions field
/// survives a bundle round trip.
Assertion random_assertion(Rng& rng, const std::vector<std::string>& values,
                           const std::string& authorizer,
                           bool one_line = false) {
  std::string program = random_program(rng, values);
  if (one_line) std::replace(program.begin(), program.end(), '\n', ' ');
  AssertionBuilder b;
  b.authorizer(authorizer)
      .licensees(random_licensees(rng))
      .conditions(program);
  if (rng.chance(0.4)) b.constant("lim", std::to_string(rng.below(4)));
  if (rng.chance(0.15)) b.constant("tag", "x");
  return b.build().take();
}

Assertion random_policy(Rng& rng, const std::vector<std::string>& values,
                        bool one_line = false) {
  return random_assertion(rng, values, "POLICY", one_line);
}

Assertion random_credential(Rng& rng, const std::vector<std::string>& values,
                            bool one_line = false) {
  return random_assertion(rng, values, "\"" + principal(rng) + "\"",
                          one_line);
}

GeneratedCase generate(Rng& rng) {
  GeneratedCase c;
  c.values = random_values(rng);
  for (std::size_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
    c.policies.push_back(random_policy(rng, c.values));
  }
  for (std::size_t i = 0, n = rng.below(18); i < n; ++i) {
    c.credentials.push_back(random_credential(rng, c.values));
  }
  return c;
}

Query random_query(Rng& rng, const std::vector<std::string>& values) {
  Query q;
  q.action_authorizers = {principal(rng)};
  if (rng.chance(0.3)) q.action_authorizers.push_back(principal(rng));
  if (values.size() != 2) {
    q.values = ComplianceValueSet::make(values).take();
  }
  for (char attr : {'a', 'b', 'c', 'd', 'e'}) {
    if (rng.chance(0.85)) {
      q.env.set(std::string(1, attr), kAttrValues[rng.below(11)]);
    }
  }
  return q;
}

class BytecodeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytecodeDifferential, VmMatchesReferenceEvaluator) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xb5297a4d);
  QueryOptions lax;
  lax.verify_signatures = false;

  GeneratedCase c = generate(rng);

  CompiledStore store;
  for (const auto& p : c.policies) ASSERT_TRUE(store.add_policy(p).ok());
  auto snapshot = store.snapshot_with(c.credentials, lax).snapshot;

  for (int probe = 0; probe < 10; ++probe) {
    Query q = random_query(rng, c.values);
    auto want = evaluate_reference(c.policies, c.credentials, q, lax);
    ASSERT_TRUE(want.ok()) << want.error().message;

    auto one_shot = evaluate(c.policies, c.credentials, q, lax);
    ASSERT_TRUE(one_shot.ok()) << one_shot.error().message;
    EXPECT_EQ(one_shot->value_index, want->value_index)
        << "evaluate() diverged; seed=" << seed << " probe=" << probe;

    // Twice on the same snapshot: per-query scratch left behind by the
    // first run must not leak into the second.
    for (int pass = 0; pass < 2; ++pass) {
      auto warm = snapshot->query(q);
      ASSERT_TRUE(warm.ok()) << warm.error().message;
      EXPECT_EQ(warm->value_index, want->value_index)
          << "query() diverged; seed=" << seed << " probe=" << probe
          << " pass=" << pass;
    }
  }
}

TEST_P(BytecodeDifferential, InterleavedMutationsMatchReference) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x6a09e667);
  QueryOptions lax;
  lax.verify_signatures = false;
  const std::vector<std::string> values = random_values(rng);

  CompiledStore store;
  ASSERT_TRUE(store.add_policy(random_policy(rng, values)).ok());

  // Every query is checked against the reference over the store's live
  // contents (plus anything presented), read back through its accessors.
  auto check = [&](const CompiledStore::StoreHandle& handle,
                   const std::vector<Assertion>& presented, int step) {
    EXPECT_EQ(handle.version, store.version())
        << "seed=" << seed << " step=" << step;
    const std::vector<Assertion> policies = store.policies();
    std::vector<Assertion> credentials = store.credentials();
    credentials.insert(credentials.end(), presented.begin(), presented.end());
    for (int probe = 0; probe < 3; ++probe) {
      Query q = random_query(rng, values);
      auto want = evaluate_reference(policies, credentials, q, lax);
      ASSERT_TRUE(want.ok()) << want.error().message;
      auto got = handle.snapshot->query(q);
      ASSERT_TRUE(got.ok()) << got.error().message;
      EXPECT_EQ(got->value_index, want->value_index)
          << "seed=" << seed << " step=" << step << " probe=" << probe
          << " presented=" << presented.size();
    }
  };
  // Pick a stored credential's text, or (when there is none) a text that
  // matches nothing.
  auto stored_text = [&] {
    const auto credentials = store.credentials();
    if (credentials.empty()) return std::string("no such credential");
    return credentials[rng.below(credentials.size())].to_text();
  };

  for (int step = 0; step < 48; ++step) {
    const std::uint64_t before = store.version();
    // A removal moves the version exactly when it removed something.
    auto removal = [&](std::size_t removed) {
      EXPECT_EQ(store.version() != before, removed != 0)
          << "seed=" << seed << " step=" << step;
    };
    switch (rng.below(9)) {
      case 0:
        ASSERT_TRUE(store.add_policy(random_policy(rng, values)).ok());
        break;
      case 1:
      case 2:
        ASSERT_TRUE(
            store.add_credential(random_credential(rng, values), false).ok());
        break;
      case 3:
        removal(store.remove_matching(stored_text()));
        break;
      case 4:
        removal(store.remove_by_authorizer(principal(rng)));
        break;
      case 5:
        removal(store.remove_by_licensee(principal(rng)));
        break;
      case 6: {
        std::string bundle;
        for (std::size_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
          bundle += random_policy(rng, values, true).to_text() + "\n";
        }
        for (std::size_t i = 0, n = rng.below(12); i < n; ++i) {
          bundle += random_credential(rng, values, true).to_text() + "\n";
        }
        ASSERT_TRUE(store.install_bundle(bundle, before + rng.below(3), false)
                        .ok())
            << "seed=" << seed << " step=" << step;
        EXPECT_GT(store.version(), before);
        break;
      }
      case 7: {
        std::vector<Assertion> presented;
        for (std::size_t i = 0, n = rng.below(4); i < n; ++i) {
          presented.push_back(random_credential(rng, values));
        }
        check(store.snapshot_with(presented, lax), presented, step);
        break;
      }
      default:
        break;  // a query through acquire() with no mutation before it
    }
    EXPECT_GE(store.version(), before);
    // The single published handle always carries the version of the
    // contents it was compiled from.
    check(store.acquire(), {}, step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeDifferential,
                         ::testing::Range<std::uint64_t>(0, 64));

}  // namespace
}  // namespace mwsec::keynote
