// The one JSON value writer behind every hand-ordered encoder (metrics,
// traces, flame, rollup, health). Callers own field order and punctuation;
// these functions own how a string or a number becomes JSON text, so every
// body escapes and formats the same way.
#pragma once

#include <string>
#include <string_view>

namespace blab::util {

/// Append `s` as a quoted JSON string (RFC 8259): `"` and `\` are
/// backslash-escaped, newline and tab become \n and \t, every other byte
/// below 0x20 becomes \u00XX. All other bytes pass through unchanged.
void append_json_string(std::string& out, std::string_view s);

/// Append `v` as a JSON number: integral values below 1e15 in magnitude
/// print as integers, everything else with six decimal places. NaN and
/// +/-Inf have no JSON literal and append as the strings "NaN", "+Inf" and
/// "-Inf".
void append_json_number(std::string& out, double v);

}  // namespace blab::util
