// Small string helpers shared by the parsers, policy stores and tools.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mwsec::util {

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split `s` on `sep`, dropping empty fields and trimming whitespace.
std::vector<std::string> split_trimmed(std::string_view s, char sep);

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lower-casing (policy identifiers are case-preserved but compared
/// case-insensitively in some middleware stores).
std::string to_lower(std::string_view s);

bool iequals(std::string_view a, std::string_view b);
bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Replace all occurrences of `from` in `s` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// True if `s` parses fully as a decimal integer (optional leading '-').
bool is_integer(std::string_view s);

/// True if `s` parses fully as a floating point number.
bool is_number(std::string_view s);

/// Render a double the way KeyNote does for attribute values: integers
/// without a trailing ".0", otherwise shortest round-trip form.
std::string number_to_string(double v);

/// `s` as the inside of a JSON string literal: `"` and `\` escaped, and
/// every byte below 0x20 as \n, \r, \t or \u00XX. Other bytes, UTF-8
/// included, pass through.
std::string json_escape(std::string_view s);

/// Levenshtein edit distance; used by the similarity metrics in translate/.
std::size_t edit_distance(std::string_view a, std::string_view b);

}  // namespace mwsec::util
