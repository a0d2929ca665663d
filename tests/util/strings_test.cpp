#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace mwsec::util {
namespace {

TEST(Split, KeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleFieldWhenNoSeparator) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitTrimmed, DropsEmptyAndTrims) {
  auto parts = split_trimmed("  a , , b  ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Join, RoundTripsWithSplit) {
  std::vector<std::string> parts = {"Finance", "Clerk", "write"};
  EXPECT_EQ(join(parts, "/"), "Finance/Clerk/write");
  EXPECT_EQ(join({}, "/"), "");
  EXPECT_EQ(join({"x"}, "/"), "x");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Case, LowerAndIequals) {
  EXPECT_EQ(to_lower("SalariesDB"), "salariesdb");
  EXPECT_TRUE(iequals("Manager", "mANAGER"));
  EXPECT_FALSE(iequals("Manager", "Managers"));
  EXPECT_FALSE(iequals("Manager", "Manger"));
}

TEST(Affixes, StartsEndsWith) {
  EXPECT_TRUE(starts_with("rsa-hex:abcd", "rsa-hex:"));
  EXPECT_FALSE(starts_with("rsa", "rsa-hex:"));
  EXPECT_TRUE(ends_with("policy.kn", ".kn"));
  EXPECT_FALSE(ends_with("kn", ".kn"));
}

TEST(ReplaceAll, ReplacesEveryOccurrence) {
  EXPECT_EQ(replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("xyz", "q", "r"), "xyz");
}

TEST(Numbers, IntegerDetection) {
  EXPECT_TRUE(is_integer("42"));
  EXPECT_TRUE(is_integer("-7"));
  EXPECT_TRUE(is_integer(" 13 "));
  EXPECT_FALSE(is_integer("4.2"));
  EXPECT_FALSE(is_integer(""));
  EXPECT_FALSE(is_integer("-"));
  EXPECT_FALSE(is_integer("12a"));
}

TEST(Numbers, FloatDetection) {
  EXPECT_TRUE(is_number("3.25"));
  EXPECT_TRUE(is_number("-0.5"));
  EXPECT_TRUE(is_number("10"));
  EXPECT_FALSE(is_number("ten"));
  EXPECT_FALSE(is_number("1.2.3"));
}

TEST(Numbers, RendersIntegersWithoutDecimalPoint) {
  EXPECT_EQ(number_to_string(3.0), "3");
  EXPECT_EQ(number_to_string(-14.0), "-14");
  EXPECT_EQ(number_to_string(2.5), "2.5");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndEveryControlByte) {
  EXPECT_EQ(json_escape("plain text"), "plain text");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  // Bytes from 0x20 up, UTF-8 sequences included, pass through.
  EXPECT_EQ(json_escape(" ~\x7f\xc3\xa9"), " ~\x7f\xc3\xa9");
}

TEST(EditDistance, KnownValues) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("read", "read"), 0u);
  EXPECT_EQ(edit_distance("read", "write"), 4u);
  EXPECT_EQ(edit_distance("Launch", "launch"), 1u);
}

TEST(EditDistance, Symmetric) {
  EXPECT_EQ(edit_distance("Manager", "Clerk"), edit_distance("Clerk", "Manager"));
}

}  // namespace
}  // namespace mwsec::util
