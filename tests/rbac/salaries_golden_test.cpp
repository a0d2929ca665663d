// Golden test for Figure 1: the RBAC relations for the Salaries Database,
// rendered in the canonical table layout and checked verbatim.
#include <gtest/gtest.h>

#include "rbac/fixtures.hpp"

namespace mwsec::rbac {
namespace {

TEST(SalariesGolden, TableMatchesFigure1) {
  EXPECT_EQ(salaries_policy().to_table(),
            "HasPermission (Domain, Role, ObjectType, Permission):\n"
            "  Finance | Clerk | SalariesDB | write\n"
            "  Finance | Manager | SalariesDB | read\n"
            "  Finance | Manager | SalariesDB | write\n"
            "  Sales | Manager | SalariesDB | read\n"
            "UserRole (Domain, Role, User):\n"
            "  Finance | Clerk | Alice\n"
            "  Finance | Manager | Bob\n"
            "  Sales | Assistant | Dave\n"
            "  Sales | Manager | Claire\n"
            "  Sales | Manager | Elaine\n");
}

// Every cell of Figure 1 as an access-decision matrix.
struct Fig1Case {
  const char* user;
  const char* permission;
  bool expect;
};

// gtest prints a parameter into the listed test name. Without this it
// dumps the struct's raw bytes — two string-literal addresses that ASLR
// moves, and uninitialised padding — so the names would differ per build.
void PrintTo(const Fig1Case& c, std::ostream* os) {
  *os << c.user << ' ' << c.permission << ' '
      << (c.expect ? "permit" : "deny");
}

class Figure1Matrix : public ::testing::TestWithParam<Fig1Case> {};

TEST_P(Figure1Matrix, DecisionMatchesPaper) {
  const auto& c = GetParam();
  EXPECT_EQ(salaries_policy().check({c.user, "SalariesDB", c.permission}),
            c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, Figure1Matrix,
    ::testing::Values(Fig1Case{"Alice", "write", true},
                      Fig1Case{"Alice", "read", false},
                      Fig1Case{"Bob", "read", true},
                      Fig1Case{"Bob", "write", true},
                      Fig1Case{"Claire", "read", true},
                      Fig1Case{"Claire", "write", false},
                      Fig1Case{"Dave", "read", false},
                      Fig1Case{"Dave", "write", false},
                      Fig1Case{"Elaine", "read", true},
                      Fig1Case{"Elaine", "write", false}),
    [](const ::testing::TestParamInfo<Fig1Case>& info) {
      return std::string(info.param.user) + "_" + info.param.permission;
    });

}  // namespace
}  // namespace mwsec::rbac
