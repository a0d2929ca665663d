// Unit tests for the Conditions bytecode compiler and VM: constant
// folding (including Local-Constants), guard extraction for the inverted
// assertion index, error semantics parity with eval.cpp, the disassembler,
// and candidate-set maintenance across store mutations.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "keynote/bytecode.hpp"
#include "keynote/compiled_store.hpp"
#include "keynote/parser.hpp"
#include "keynote/query.hpp"
#include "keynote/values.hpp"
#include "keynote/vm.hpp"

namespace mwsec::keynote {
namespace {

CompiledConditions compile(std::string_view src, AttrTable& attrs,
                           std::map<std::string, std::string> constants = {}) {
  auto prog = parse_conditions(src);
  EXPECT_TRUE(prog.ok()) << src;
  return compile_conditions(*prog, constants, attrs);
}

/// Run a compiled program against a name->value environment using the
/// default {false,true} compliance set; returns the compliance index.
std::size_t run(const CompiledConditions& cc, const AttrTable& attrs,
                const std::map<std::string, std::string>& env) {
  ComplianceValueSet values;
  std::vector<std::string_view> slots(attrs.size());
  for (std::uint32_t s = 0; s < attrs.size(); ++s) {
    auto it = env.find(attrs.name(s));
    slots[s] = it == env.end() ? std::string_view() : it->second;
  }
  VmScratch scratch;
  return run_conditions(cc, values, slots, /*dyn=*/nullptr, scratch);
}

// ---------------------------------------------------------------- folding

TEST(BytecodeFolding, EmptyConditionsIsConstantMax) {
  AttrTable attrs;
  auto cc = compile("", attrs);
  EXPECT_EQ(cc.constant, ProgramConst::kMax);
  EXPECT_TRUE(cc.code.empty());
}

TEST(BytecodeFolding, UnconditionallyFalseClauseIsConstantMin) {
  AttrTable attrs;
  auto cc = compile("\"x\" == \"y\"", attrs);
  EXPECT_EQ(cc.constant, ProgramConst::kMin);
}

TEST(BytecodeFolding, UnconditionallyTrueDefaultClauseIsConstantMax) {
  AttrTable attrs;
  auto cc = compile("\"x\" == \"x\"", attrs);
  EXPECT_EQ(cc.constant, ProgramConst::kMax);
}

TEST(BytecodeFolding, LocalConstantsFoldIntoComparisons) {
  AttrTable attrs;
  // `lim` is a local constant, so the whole test folds at compile time and
  // no attribute slot is ever interned.
  auto cc = compile("lim == \"5\"", attrs, {{"lim", "5"}});
  EXPECT_EQ(cc.constant, ProgramConst::kMax);
  EXPECT_EQ(attrs.size(), 0u);
}

TEST(BytecodeFolding, NumericConstantFolding) {
  AttrTable attrs;
  auto cc = compile("@lim * 2 == 10", attrs, {{"lim", "5"}});
  EXPECT_EQ(cc.constant, ProgramConst::kMax);
}

TEST(BytecodeFolding, ConstantFoldErrorDropsClause) {
  AttrTable attrs;
  // @lim does not parse as a number: the clause can never contribute.
  auto cc = compile("@lim == 5", attrs, {{"lim", "notanumber"}});
  EXPECT_EQ(cc.constant, ProgramConst::kMin);
}

TEST(BytecodeFolding, ReservedAttributesNeverFold) {
  AttrTable attrs;
  auto cc = compile("_ACTION_AUTHORIZERS == \"K0\"", attrs);
  EXPECT_EQ(cc.constant, ProgramConst::kNo);
}

// ----------------------------------------------------------------- guards

TEST(BytecodeGuards, ConjunctionGuardsEveryPinnedAttribute) {
  AttrTable attrs;
  auto cc = compile("app_domain == \"SalariesDB\" && oper == \"read\"", attrs);
  ASSERT_EQ(cc.guards.size(), 2u);
  std::map<std::string, std::vector<std::string>> by_name;
  for (const auto& [slot, lits] : cc.guards) by_name[attrs.name(slot)] = lits;
  EXPECT_EQ(by_name["app_domain"],
            std::vector<std::string>{"SalariesDB"});
  EXPECT_EQ(by_name["oper"], std::vector<std::string>{"read"});
}

TEST(BytecodeGuards, DisjunctionUnionsLiteralsAndDropsOneSidedAttrs) {
  AttrTable attrs;
  auto cc =
      compile("(a == \"1\" && b == \"2\") || a == \"3\"", attrs);
  // `b` is only pinned on one branch, so only `a` guards the program.
  ASSERT_EQ(cc.guards.size(), 1u);
  EXPECT_EQ(attrs.name(cc.guards[0].first), "a");
  EXPECT_EQ(cc.guards[0].second, (std::vector<std::string>{"1", "3"}));
}

TEST(BytecodeGuards, MultiClauseProgramGuardsOnlyCommonAttrs) {
  AttrTable attrs;
  auto cc = compile(
      "app_domain == \"DB\" && oper == \"read\";\n"
      "app_domain == \"DB\" && oper == \"write\";", attrs);
  ASSERT_EQ(cc.guards.size(), 2u);
  std::map<std::string, std::vector<std::string>> by_name;
  for (const auto& [slot, lits] : cc.guards) by_name[attrs.name(slot)] = lits;
  EXPECT_EQ(by_name["app_domain"], std::vector<std::string>{"DB"});
  EXPECT_EQ(by_name["oper"], (std::vector<std::string>{"read", "write"}));
}

TEST(BytecodeGuards, ReservedAndInequalityAtomsDoNotGuard) {
  AttrTable attrs;
  auto a = compile("_ACTION_AUTHORIZERS == \"K0\"", attrs);
  EXPECT_TRUE(a.guards.empty());
  auto b = compile("oper != \"read\"", attrs);
  EXPECT_TRUE(b.guards.empty());
}

// -------------------------------------------------------------- execution

TEST(BytecodeVm, StringComparisonAndShortCircuit) {
  AttrTable attrs;
  auto cc = compile("a == \"1\" || b == \"2\"", attrs);
  EXPECT_EQ(run(cc, attrs, {{"a", "1"}}), 1u);
  EXPECT_EQ(run(cc, attrs, {{"b", "2"}}), 1u);
  EXPECT_EQ(run(cc, attrs, {{"a", "9"}, {"b", "9"}}), 0u);
}

TEST(BytecodeVm, NumericErrorAbortsTheClause) {
  AttrTable attrs;
  // Non-numeric @a errors the whole clause even though b matches — error
  // is not false inside a compound (eval.cpp parity).
  auto cc = compile("@a > 1 || b == \"x\"", attrs);
  EXPECT_EQ(run(cc, attrs, {{"a", "notnum"}, {"b", "x"}}), 0u);
  EXPECT_EQ(run(cc, attrs, {{"a", "2"}, {"b", ""}}), 1u);
}

TEST(BytecodeVm, DivisionByZeroAbortsOnlyItsClause) {
  AttrTable attrs;
  auto cc = compile("@a / @b > 0;\nc == \"yes\";", attrs);
  // Clause 1 errors (div by zero); clause 2 still grants.
  EXPECT_EQ(run(cc, attrs, {{"a", "4"}, {"b", "0"}, {"c", "yes"}}), 1u);
  EXPECT_EQ(run(cc, attrs, {{"a", "4"}, {"b", "0"}, {"c", "no"}}), 0u);
}

TEST(BytecodeVm, ConstantRegexIsPrecompiled) {
  AttrTable attrs;
  auto cc = compile("name ~= \"^adm[a-z]+$\"", attrs);
  EXPECT_EQ(cc.regex_pool.size(), 1u);
  EXPECT_EQ(run(cc, attrs, {{"name", "admin"}}), 1u);
  EXPECT_EQ(run(cc, attrs, {{"name", "guest"}}), 0u);
}

TEST(BytecodeVm, SubprogramValuesAndEmptySubIsMin) {
  ComplianceValueSet values;
  auto v3 = ComplianceValueSet::make({"no", "maybe", "yes"});
  ASSERT_TRUE(v3.ok());
  AttrTable attrs;
  auto cc = compile(
      "a == \"1\" -> { b == \"2\" -> \"yes\"; true -> \"maybe\"; };", attrs);
  std::vector<std::string_view> slots(attrs.size());
  auto run3 = [&](std::map<std::string, std::string> env) {
    for (std::uint32_t s = 0; s < attrs.size(); ++s) {
      auto it = env.find(attrs.name(s));
      slots[s] = it == env.end() ? std::string_view() : it->second;
    }
    VmScratch scratch;
    return run_conditions(cc, *v3, slots, nullptr, scratch);
  };
  EXPECT_EQ(run3({{"a", "1"}, {"b", "2"}}), 2u);
  EXPECT_EQ(run3({{"a", "1"}, {"b", "9"}}), 1u);
  EXPECT_EQ(run3({{"a", "0"}, {"b", "2"}}), 0u);
}

// ------------------------------------------------------------ disassembly

TEST(BytecodeDisassembly, ListsOpsGuardsAndConstants) {
  AttrTable attrs;
  auto cc = compile("app_domain == \"DB\" && @count < 10", attrs);
  std::string listing = disassemble(cc, attrs);
  EXPECT_NE(listing.find("load_attr"), std::string::npos);
  EXPECT_NE(listing.find("cmp_str"), std::string::npos);
  EXPECT_NE(listing.find("cmp_num"), std::string::npos);
  EXPECT_NE(listing.find("app_domain"), std::string::npos);

  auto never = compile("\"x\" == \"y\"", attrs);
  EXPECT_NE(disassemble(never, attrs).find("_MIN_TRUST"), std::string::npos);
}

// ------------------------------------------------------ index maintenance

Assertion make_credential(const std::string& authorizer,
                          const std::string& licensee,
                          const std::string& conditions) {
  return AssertionBuilder()
      .authorizer("\"" + authorizer + "\"")
      .licensees("\"" + licensee + "\"")
      .conditions(conditions)
      .build()
      .take();
}

TEST(CompiledIndexTest, GuardedStoreAdmitsOnlyMatchingCandidates) {
  CompiledStore store;
  ASSERT_TRUE(store
                  .add_policy_text(
                      "Authorizer: POLICY\n"
                      "Licensees: \"Kadmin\"\n"
                      "Conditions: app_domain == \"DB\";\n")
                  .ok());
  QueryOptions lax;
  lax.verify_signatures = false;
  for (int i = 0; i < 16; ++i) {
    std::string user = "u" + std::to_string(i);
    ASSERT_TRUE(store
                    .add_credential(
                        make_credential("Kadmin", "K" + std::to_string(i),
                                        "app_domain == \"DB\" && user == \"" +
                                            user + "\";"),
                        /*verify_signature=*/false)
                    .ok());
  }
  auto snap = store.snapshot();
  auto stats = snap->index().stats();
  EXPECT_EQ(stats.assertions, 17u);
  EXPECT_EQ(stats.guarded, 17u);
  EXPECT_EQ(stats.unguarded, 0u);

  Query q;
  q.action_authorizers = {"K3"};
  q.env.set("app_domain", "DB");
  q.env.set("user", "u3");
  QueryContext ctx(q);
  // Policy (guarded on app_domain only) + exactly one per-user credential.
  EXPECT_EQ(snap->index().candidate_count(ctx), 2u);

  // Each assertion is keyed by its most selective guard attribute:
  // credentials by `user` (16 distinct literals), the policy by
  // `app_domain`. A wrong app_domain drops the policy but still admits
  // the one user-matching credential — which then fails its Conditions.
  Query miss;
  miss.action_authorizers = {"K3"};
  miss.env.set("app_domain", "OtherDB");
  miss.env.set("user", "u3");
  QueryContext miss_ctx(miss);
  EXPECT_EQ(snap->index().candidate_count(miss_ctx), 1u);

  Query nobody;
  nobody.action_authorizers = {"K3"};
  nobody.env.set("app_domain", "OtherDB");
  nobody.env.set("user", "nobody");
  QueryContext nobody_ctx(nobody);
  EXPECT_EQ(snap->index().candidate_count(nobody_ctx), 0u);

  auto r = snap->query(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->authorized());
  auto rm = snap->query(miss);
  ASSERT_TRUE(rm.ok());
  EXPECT_FALSE(rm->authorized());
}

TEST(CompiledIndexTest, RemoveByLicenseeShrinksCandidateSet) {
  CompiledStore store;
  ASSERT_TRUE(store
                  .add_policy_text(
                      "Authorizer: POLICY\n"
                      "Licensees: \"Kadmin\"\n"
                      "Conditions: oper == \"read\";\n")
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store
                    .add_credential(
                        make_credential("Kadmin", "K" + std::to_string(i),
                                        "oper == \"read\";"),
                        false)
                    .ok());
  }
  Query q;
  q.action_authorizers = {"K5"};
  q.env.set("oper", "read");
  QueryContext ctx(q);

  auto before = store.snapshot();
  EXPECT_EQ(before->index().stats().assertions, 9u);
  EXPECT_EQ(before->index().candidate_count(ctx), 9u);
  ASSERT_TRUE(before->query(q)->authorized());

  EXPECT_EQ(store.remove_by_licensee("K5"), 1u);
  auto after = store.snapshot();
  EXPECT_EQ(after->index().stats().assertions, 8u);
  EXPECT_EQ(after->index().candidate_count(ctx), 8u);
  EXPECT_FALSE(after->query(q)->authorized());

  // Identical conditions text deduplicates to one shared program.
  EXPECT_EQ(after->index().stats().programs, 1u);
}

TEST(CompiledIndexTest, NeverProgramsAreExcludedFromCandidates) {
  CompiledStore store;
  ASSERT_TRUE(store
                  .add_policy_text(
                      "Authorizer: POLICY\n"
                      "Licensees: \"K0\"\n"
                      "Conditions: \"x\" == \"y\";\n")
                  .ok());
  auto snap = store.snapshot();
  auto stats = snap->index().stats();
  EXPECT_EQ(stats.never, 1u);

  Query q;
  q.action_authorizers = {"K0"};
  QueryContext ctx(q);
  EXPECT_EQ(snap->index().candidate_count(ctx), 0u);
  EXPECT_FALSE(snap->query(q)->authorized());
}

}  // namespace
}  // namespace mwsec::keynote
