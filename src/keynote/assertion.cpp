#include "keynote/assertion.hpp"

#include <algorithm>
#include <cctype>

#include "keynote/parser.hpp"
#include "util/strings.hpp"

namespace mwsec::keynote {

namespace {

/// Strip surrounding double quotes if present (principals may be written
/// quoted or bare).
std::string unquote(std::string_view s) {
  s = util::trim(s);
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    return std::string(s.substr(1, s.size() - 2));
  }
  return std::string(s);
}

/// Textual parse of Local-Constants: a sequence of NAME="value" bindings
/// separated by whitespace. Values are quoted strings with \" escapes.
mwsec::Result<std::map<std::string, std::string>> parse_constants_text(
    std::string_view body) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  const std::size_t n = body.size();
  auto skip_ws = [&] {
    while (i < n && std::isspace(static_cast<unsigned char>(body[i]))) ++i;
  };
  skip_ws();
  while (i < n) {
    // Name.
    std::size_t start = i;
    while (i < n && (std::isalnum(static_cast<unsigned char>(body[i])) ||
                     body[i] == '_')) {
      ++i;
    }
    if (i == start) {
      return Error::make("Local-Constants: expected a name", "parse");
    }
    std::string name(body.substr(start, i - start));
    skip_ws();
    if (i >= n || body[i] != '=') {
      return Error::make("Local-Constants: expected '=' after " + name,
                         "parse");
    }
    ++i;
    skip_ws();
    if (i >= n || body[i] != '"') {
      return Error::make("Local-Constants: expected quoted value for " + name,
                         "parse");
    }
    ++i;
    std::string value;
    while (i < n && body[i] != '"') {
      if (body[i] == '\\' && i + 1 < n) {
        value.push_back(body[i + 1]);
        i += 2;
      } else {
        value.push_back(body[i]);
        ++i;
      }
    }
    if (i >= n) {
      return Error::make("Local-Constants: unterminated value for " + name,
                         "parse");
    }
    ++i;  // closing quote
    if (!out.emplace(name, value).second) {
      return Error::make("Local-Constants: duplicate name " + name, "parse");
    }
    skip_ws();
  }
  return out;
}

/// A field body as parse() folds it: every line trimmed, blank lines
/// dropped, the rest joined by single spaces. to_text() writes each field
/// on one line, so a builder that stores this form survives the round
/// trip — and so does a signature over it.
std::string fold_lines(std::string_view text) {
  return util::join(util::split_trimmed(text, '\n'), " ");
}

/// Apply Local-Constants substitution to every principal in a licensees
/// expression.
void substitute_principals(LicenseeExpr& expr,
                           const std::map<std::string, std::string>& constants) {
  if (expr.kind == LicenseeExpr::Kind::kPrincipal) {
    auto it = constants.find(expr.principal);
    if (it != constants.end()) expr.principal = it->second;
  }
  for (auto& child : expr.children) substitute_principals(child, constants);
}

}  // namespace

bool Assertion::is_policy() const {
  return util::iequals(authorizer_, "POLICY");
}

mwsec::Result<Assertion> Assertion::parse(std::string_view text) {
  // Fold continuation lines (leading whitespace) into "Name: body" records.
  struct Field {
    std::string name;
    std::string body;
  };
  std::vector<Field> fields;
  for (const auto& raw_line : util::split(text, '\n')) {
    std::string_view line = raw_line;
    if (util::trim(line).empty()) continue;
    if (std::isspace(static_cast<unsigned char>(line.front()))) {
      if (fields.empty()) {
        return Error::make("continuation line before any field", "parse");
      }
      fields.back().body.append(" ");
      fields.back().body.append(util::trim(line));
      continue;
    }
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Error::make("missing ':' in field line: " + std::string(line),
                         "parse");
    }
    Field f;
    f.name = util::to_lower(util::trim(line.substr(0, colon)));
    f.body = std::string(util::trim(line.substr(colon + 1)));
    fields.push_back(std::move(f));
  }
  if (fields.empty()) return Error::make("empty assertion", "parse");

  Assertion a;
  bool saw_authorizer = false;
  for (auto& f : fields) {
    if (f.name == "keynote-version") {
      a.keynote_version_ = unquote(f.body);
    } else if (f.name == "comment") {
      a.comment_ = f.body;
    } else if (f.name == "local-constants") {
      auto consts = parse_constants_text(f.body);
      if (!consts.ok()) return consts.error();
      a.local_constants_ = std::move(consts).take();
    } else if (f.name == "authorizer") {
      if (saw_authorizer) {
        return Error::make("duplicate Authorizer field", "parse");
      }
      saw_authorizer = true;
      a.authorizer_text_ = f.body;
    } else if (f.name == "licensees") {
      a.licensees_text_ = f.body;
    } else if (f.name == "conditions") {
      a.conditions_text_ = f.body;
    } else if (f.name == "signature") {
      a.signature_ = unquote(f.body);
    } else {
      return Error::make("unknown assertion field: " + f.name, "parse");
    }
  }
  if (!saw_authorizer) {
    return Error::make("assertion has no Authorizer field", "parse");
  }

  // Resolve the authorizer: strip quotes, then apply Local-Constants.
  a.authorizer_ = unquote(a.authorizer_text_);
  if (auto it = a.local_constants_.find(a.authorizer_);
      it != a.local_constants_.end()) {
    a.authorizer_ = it->second;
  }

  auto lic = parse_licensees(a.licensees_text_);
  if (!lic.ok()) return lic.error();
  a.licensees_ = std::move(lic).take();
  substitute_principals(a.licensees_, a.local_constants_);

  auto cond = parse_conditions(a.conditions_text_);
  if (!cond.ok()) return cond.error();
  a.conditions_ = std::move(cond).take();

  if (a.is_policy() && a.is_signed()) {
    return Error::make("policy assertions must not carry a signature",
                       "parse");
  }
  return a;
}

mwsec::Result<std::vector<Assertion>> Assertion::parse_bundle(
    std::string_view text) {
  std::vector<Assertion> out;
  std::string current;
  auto flush = [&]() -> mwsec::Status {
    if (util::trim(current).empty()) {
      current.clear();
      return {};
    }
    auto a = parse(current);
    if (!a.ok()) return a.error();
    out.push_back(std::move(a).take());
    current.clear();
    return {};
  };
  for (const auto& line : util::split(text, '\n')) {
    if (util::trim(line).empty()) {
      if (auto s = flush(); !s.ok()) return s.error();
    } else {
      current += line;
      current += '\n';
    }
  }
  if (auto s = flush(); !s.ok()) return s.error();
  return out;
}

std::string Assertion::signed_body() const {
  // Canonical serialisation; the deterministic form both signing and
  // verification hash.
  std::string out;
  if (!keynote_version_.empty()) {
    out += "KeyNote-Version: " + keynote_version_ + "\n";
  }
  if (!comment_.empty()) out += "Comment: " + comment_ + "\n";
  if (!local_constants_.empty()) {
    out += "Local-Constants:";
    for (const auto& [name, value] : local_constants_) {
      // parse_constants_text reads `\x` as `x`, so `\` needs the escape
      // as much as `"` does.
      const std::string escaped = util::replace_all(
          util::replace_all(value, "\\", "\\\\"), "\"", "\\\"");
      out += " " + name + "=\"" + escaped + "\"";
    }
    out += "\n";
  }
  out += "Authorizer: " + authorizer_text_ + "\n";
  out += "Licensees: " + licensees_text_ + "\n";
  out += "Conditions: " + conditions_text_ + "\n";
  return out;
}

std::string Assertion::to_text() const {
  std::string out = signed_body();
  if (is_signed()) out += "Signature: " + signature_ + "\n";
  return out;
}

mwsec::Status Assertion::sign_with(const crypto::Identity& identity) {
  if (is_policy()) {
    return Error::make("policy assertions are not signed", "signature");
  }
  if (authorizer_ != identity.principal()) {
    return Error::make(
        "signer is not the authorizer (authorizer=" + authorizer_ + ")",
        "signature");
  }
  signature_ = identity.sign(signed_body());
  return {};
}

mwsec::Status Assertion::verify() const {
  if (is_policy()) return {};  // policy is trusted by fiat (RFC 2704 §4.6.1)
  if (!is_signed()) {
    return Error::make("credential is unsigned", "signature");
  }
  if (!crypto::is_key_principal(authorizer_)) {
    return Error::make("authorizer '" + authorizer_ +
                           "' is not a key; cannot verify signature",
                       "signature");
  }
  if (!crypto::verify_message(authorizer_, signed_body(), signature_)) {
    return Error::make("signature verification failed", "signature");
  }
  return {};
}

const std::string* Assertion::find_constant(std::string_view name) const {
  auto it = local_constants_.find(std::string(name));
  return it == local_constants_.end() ? nullptr : &it->second;
}

AssertionBuilder& AssertionBuilder::version(std::string v) {
  version_ = std::move(v);
  return *this;
}
AssertionBuilder& AssertionBuilder::comment(std::string c) {
  comment_ = std::move(c);
  return *this;
}
AssertionBuilder& AssertionBuilder::constant(std::string name,
                                             std::string value) {
  constants_[std::move(name)] = std::move(value);
  return *this;
}
AssertionBuilder& AssertionBuilder::authorizer(std::string a) {
  authorizer_ = std::move(a);
  return *this;
}
AssertionBuilder& AssertionBuilder::licensees(std::string expr) {
  licensees_ = std::move(expr);
  return *this;
}
AssertionBuilder& AssertionBuilder::conditions(std::string program) {
  conditions_ = std::move(program);
  return *this;
}

mwsec::Result<Assertion> AssertionBuilder::build() const {
  if (authorizer_.empty()) {
    return Error::make("assertion needs an authorizer", "build");
  }
  // A constant is a value, not text to fold: a newline in it would change
  // what the assertion means after a round trip.
  for (const auto& [name, value] : constants_) {
    if (value.find('\n') != std::string::npos) {
      return Error::make("Local-Constants value of " + name +
                             " contains a newline",
                         "build");
    }
  }
  Assertion a;
  a.keynote_version_ = unquote(fold_lines(version_));
  a.comment_ = fold_lines(comment_);
  a.local_constants_ = constants_;
  a.authorizer_text_ = fold_lines(authorizer_);
  a.authorizer_ = unquote(a.authorizer_text_);
  if (auto it = a.local_constants_.find(a.authorizer_);
      it != a.local_constants_.end()) {
    a.authorizer_ = it->second;
  }
  a.licensees_text_ = fold_lines(licensees_);
  auto lic = parse_licensees(a.licensees_text_);
  if (!lic.ok()) return lic.error();
  a.licensees_ = std::move(lic).take();
  substitute_principals(a.licensees_, a.local_constants_);
  a.conditions_text_ = fold_lines(conditions_);
  auto cond = parse_conditions(a.conditions_text_);
  if (!cond.ok()) return cond.error();
  a.conditions_ = std::move(cond).take();
  return a;
}

mwsec::Result<Assertion> AssertionBuilder::build_signed(
    const crypto::Identity& identity) const {
  auto a = build();
  if (!a.ok()) return a;
  if (auto s = a.value().sign_with(identity); !s.ok()) return s.error();
  return a;
}

}  // namespace mwsec::keynote
