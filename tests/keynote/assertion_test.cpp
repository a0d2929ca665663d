#include "keynote/assertion.hpp"

#include <gtest/gtest.h>

namespace mwsec::keynote {
namespace {

crypto::KeyRing& ring() {
  static crypto::KeyRing r(/*seed=*/404, /*modulus_bits=*/256);
  return r;
}

TEST(Assertion, ParsesPaperFigure2Policy) {
  auto a = Assertion::parse(
      "Authorizer: POLICY\n"
      "licensees: \"Kbob\"\n"
      "Conditions: app_domain==\"SalariesDB\" &&\n"
      "            (oper==\"read\" || oper==\"write\");\n");
  ASSERT_TRUE(a.ok()) << a.error().message;
  EXPECT_TRUE(a->is_policy());
  EXPECT_FALSE(a->is_signed());
  EXPECT_EQ(a->licensees().kind, LicenseeExpr::Kind::kPrincipal);
  EXPECT_EQ(a->licensees().principal, "Kbob");
  EXPECT_EQ(a->conditions().clauses.size(), 1u);
}

TEST(Assertion, FieldNamesCaseInsensitive) {
  auto a = Assertion::parse(
      "AUTHORIZER: POLICY\nLICENSEES: \"K1\"\nCONDITIONS: true\n");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->is_policy());
}

TEST(Assertion, ContinuationLinesFold) {
  auto a = Assertion::parse(
      "Authorizer: POLICY\n"
      "Licensees: \"K1\" ||\n"
      "   \"K2\" ||\n"
      "\t\"K3\"\n"
      "Conditions: true\n");
  ASSERT_TRUE(a.ok()) << a.error().message;
  EXPECT_EQ(a->licensees().kind, LicenseeExpr::Kind::kOr);
  EXPECT_EQ(a->licensees().children.size(), 3u);
}

TEST(Assertion, MissingAuthorizerRejected) {
  auto a = Assertion::parse("Licensees: \"K1\"\nConditions: true\n");
  EXPECT_FALSE(a.ok());
}

TEST(Assertion, DuplicateAuthorizerRejected) {
  EXPECT_FALSE(Assertion::parse(
                   "Authorizer: POLICY\nAuthorizer: \"K\"\nConditions: true\n")
                   .ok());
}

TEST(Assertion, UnknownFieldRejected) {
  EXPECT_FALSE(
      Assertion::parse("Authorizer: POLICY\nFrobnicate: yes\n").ok());
}

TEST(Assertion, EmptyTextRejected) {
  EXPECT_FALSE(Assertion::parse("").ok());
  EXPECT_FALSE(Assertion::parse("   \n \n").ok());
}

TEST(Assertion, LineWithoutColonRejected) {
  EXPECT_FALSE(Assertion::parse("Authorizer POLICY\n").ok());
}

TEST(Assertion, LocalConstantsSubstituteIntoLicensees) {
  auto a = Assertion::parse(
      "Local-Constants: ALICE=\"rsa-hex:00aa\" BOB=\"rsa-hex:00bb\"\n"
      "Authorizer: POLICY\n"
      "Licensees: ALICE || BOB\n"
      "Conditions: true\n");
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_EQ(a->licensees().children.size(), 2u);
  EXPECT_EQ(a->licensees().children[0].principal, "rsa-hex:00aa");
  EXPECT_EQ(a->licensees().children[1].principal, "rsa-hex:00bb");
}

TEST(Assertion, LocalConstantsSubstituteIntoAuthorizer) {
  auto a = Assertion::parse(
      "Local-Constants: SIGNER=\"rsa-hex:00cc\"\n"
      "Authorizer: SIGNER\n"
      "Licensees: \"K\"\n"
      "Conditions: true\n");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->authorizer(), "rsa-hex:00cc");
}

TEST(Assertion, LocalConstantsRejectMalformed) {
  EXPECT_FALSE(Assertion::parse("Local-Constants: A=unquoted\n"
                                "Authorizer: POLICY\nConditions: true\n")
                   .ok());
  EXPECT_FALSE(Assertion::parse("Local-Constants: A=\"x\" A=\"y\"\n"
                                "Authorizer: POLICY\nConditions: true\n")
                   .ok());
  EXPECT_FALSE(Assertion::parse("Local-Constants: =\"x\"\n"
                                "Authorizer: POLICY\nConditions: true\n")
                   .ok());
}

TEST(Assertion, SignAndVerifyRoundTrip) {
  const auto& bob = ring().identity("Kbob");
  auto a = AssertionBuilder()
               .authorizer("\"" + bob.principal() + "\"")
               .licensees("\"Kalice\"")
               .conditions("app_domain==\"SalariesDB\" && oper==\"write\"")
               .build();
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(a.value().sign_with(bob).ok());
  EXPECT_TRUE(a->is_signed());
  EXPECT_TRUE(a->verify().ok());
}

TEST(Assertion, SignRequiresMatchingIdentity) {
  const auto& bob = ring().identity("Kbob");
  const auto& eve = ring().identity("Keve");
  auto a = AssertionBuilder()
               .authorizer("\"" + bob.principal() + "\"")
               .licensees("\"K\"")
               .conditions("true")
               .build()
               .take();
  EXPECT_FALSE(a.sign_with(eve).ok());
}

TEST(Assertion, VerifyFailsOnTamperedBody) {
  const auto& bob = ring().identity("Kbob");
  auto a = AssertionBuilder()
               .authorizer("\"" + bob.principal() + "\"")
               .licensees("\"Kalice\"")
               .conditions("oper==\"read\"")
               .build_signed(bob)
               .take();
  // Re-parse with an altered conditions field but the original signature.
  std::string text = a.to_text();
  auto pos = text.find("oper==\"read\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "oper==\"kill\"");
  auto tampered = Assertion::parse(text);
  ASSERT_TRUE(tampered.ok());
  EXPECT_FALSE(tampered->verify().ok());
}

TEST(Assertion, VerifyFailsForOpaqueAuthorizer) {
  auto a = Assertion::parse(
      "Authorizer: \"Kbob\"\nLicensees: \"Kalice\"\nConditions: true\n"
      "Signature: sig-rsa-sha256-hex:00\n");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->verify().ok());
}

TEST(Assertion, UnsignedCredentialFailsVerify) {
  auto a = Assertion::parse(
      "Authorizer: \"Kbob\"\nLicensees: \"Kalice\"\nConditions: true\n");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->verify().ok());
}

TEST(Assertion, PolicyAlwaysVerifies) {
  auto a = Assertion::parse("Authorizer: POLICY\nConditions: true\n");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->verify().ok());
}

TEST(Assertion, SignedPolicyRejected) {
  EXPECT_FALSE(Assertion::parse("Authorizer: POLICY\nConditions: true\n"
                                "Signature: sig-rsa-sha256-hex:00\n")
                   .ok());
}

TEST(Assertion, TextRoundTripPreservesSemantics) {
  const auto& bob = ring().identity("Kbob");
  auto a = AssertionBuilder()
               .version("2")
               .comment("Figure 4 of the paper")
               .authorizer("\"" + bob.principal() + "\"")
               .licensees("\"Kalice\"")
               .conditions("app_domain==\"SalariesDB\" && oper==\"write\"")
               .build_signed(bob)
               .take();
  auto reparsed = Assertion::parse(a.to_text());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(reparsed->authorizer(), a.authorizer());
  EXPECT_EQ(reparsed->signature(), a.signature());
  EXPECT_TRUE(reparsed->verify().ok());
  EXPECT_EQ(reparsed->to_text(), a.to_text());
}

TEST(Assertion, ParseBundleSplitsOnBlankLines) {
  auto bundle = Assertion::parse_bundle(
      "Authorizer: POLICY\nLicensees: \"K1\"\nConditions: true\n"
      "\n\n"
      "Authorizer: POLICY\nLicensees: \"K2\"\nConditions: true\n");
  ASSERT_TRUE(bundle.ok()) << bundle.error().message;
  EXPECT_EQ(bundle->size(), 2u);
}

TEST(Assertion, ParseBundleEmptyYieldsNothing) {
  auto bundle = Assertion::parse_bundle("\n\n  \n");
  ASSERT_TRUE(bundle.ok());
  EXPECT_TRUE(bundle->empty());
}

TEST(Assertion, ParseBundlePropagatesErrors) {
  EXPECT_FALSE(Assertion::parse_bundle(
                   "Authorizer: POLICY\nConditions: true\n\nGarbage\n")
                   .ok());
}

TEST(AssertionBuilder, RequiresAuthorizer) {
  EXPECT_FALSE(AssertionBuilder().licensees("\"K\"").build().ok());
}

TEST(AssertionBuilder, RejectsBadSublanguage) {
  EXPECT_FALSE(
      AssertionBuilder().authorizer("POLICY").conditions("a ==").build().ok());
  EXPECT_FALSE(
      AssertionBuilder().authorizer("POLICY").licensees("&&").build().ok());
}

TEST(AssertionBuilder, MultiLineFieldsSurviveTextRoundTrip) {
  // Unindented, indented, and blank-line-separated continuations.
  for (const std::string nl : {"\n", "\n    ", "\n\n\t"}) {
    auto a = AssertionBuilder()
                 .comment("delegated" + nl + "for the night shift")
                 .authorizer("POLICY")
                 .licensees("\"K1\" ||" + nl + "\"K2\"")
                 .conditions("app_domain == \"WebCom\" &&" + nl +
                             "oper == \"run\" -> \"true\";" + nl +
                             "oper == \"halt\";")
                 .build();
    ASSERT_TRUE(a.ok()) << a.error().message;
    auto reparsed = Assertion::parse(a->to_text());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    EXPECT_EQ(reparsed->to_text(), a->to_text());
    EXPECT_EQ(reparsed->comment(), "delegated for the night shift");
  }
}

TEST(AssertionBuilder, SignedMultiLineCredentialVerifiesAfterRoundTrip) {
  const auto& bob = ring().identity("Kbob");
  for (const std::string nl : {"\n", "\n    "}) {
    auto a = AssertionBuilder()
                 .authorizer("\"" + bob.principal() + "\"")
                 .licensees("\"Kalice\"")
                 .conditions("app_domain == \"SalariesDB\" &&" + nl +
                             "oper == \"write\"")
                 .build_signed(bob)
                 .take();
    auto reparsed = Assertion::parse(a.to_text());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    EXPECT_TRUE(reparsed->verify().ok());
  }
}

TEST(AssertionBuilder, RefusesNewlineInLocalConstant) {
  EXPECT_FALSE(AssertionBuilder()
                   .authorizer("POLICY")
                   .constant("A", "K1\nK2")
                   .licensees("A")
                   .build()
                   .ok());
}

TEST(AssertionBuilder, BackslashAndQuoteInLocalConstantSurviveTextRoundTrip) {
  for (const std::string value :
       {"C:\\share", "say \"hi\"", "\\\"", "\"\\", "a\\\\b\\"}) {
    auto a = AssertionBuilder()
                 .authorizer("POLICY")
                 .constant("V", value)
                 .licensees("\"K1\"")
                 .build();
    ASSERT_TRUE(a.ok()) << a.error().message;
    auto reparsed = Assertion::parse(a->to_text());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    ASSERT_NE(reparsed->find_constant("V"), nullptr);
    EXPECT_EQ(*reparsed->find_constant("V"), value);
    EXPECT_EQ(reparsed->to_text(), a->to_text());
  }
}

TEST(AssertionBuilder, ConstantWithoutBackslashSerialisesUnchanged) {
  // Only a backslash gained an escape, so the signed body of every other
  // value, and with it every existing signature, is what it was.
  auto a = AssertionBuilder()
               .authorizer("POLICY")
               .constant("V", "say \"hi\"")
               .licensees("\"K1\"")
               .build();
  ASSERT_TRUE(a.ok()) << a.error().message;
  EXPECT_NE(a->to_text().find("Local-Constants: V=\"say \\\"hi\\\"\"\n"),
            std::string::npos)
      << a->to_text();
}

TEST(AssertionBuilder, SignedBackslashConstantVerifiesAfterRoundTrip) {
  const auto& bob = ring().identity("Kbob");
  auto a = AssertionBuilder()
               .authorizer("\"" + bob.principal() + "\"")
               .constant("DIR", "C:\\share")
               .licensees("\"Kalice\"")
               .conditions("dir == DIR")
               .build_signed(bob)
               .take();
  ASSERT_TRUE(a.verify().ok());
  auto reparsed = Assertion::parse(a.to_text());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_TRUE(reparsed->verify().ok());
}

}  // namespace
}  // namespace mwsec::keynote
