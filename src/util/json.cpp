#include "util/json.hpp"

#include <cmath>
#include <cstdint>

#include "util/strings.hpp"

namespace blab::util {

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  // Copy runs of plain bytes in one append; only escapes go byte by byte.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s, run);
  out += '"';
}

void append_json_number(std::string& out, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    out += std::isnan(v) ? "\"NaN\"" : v > 0 ? "\"+Inf\"" : "\"-Inf\"";
  } else if (v == std::floor(v) && std::abs(v) < 1e15) {
    out += std::to_string(static_cast<std::int64_t>(v));
  } else {
    out += format_double(v, 6);
  }
}

}  // namespace blab::util
