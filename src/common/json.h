// JSON string escaping, shared by every JSON the library writes: the
// metric export (obs/export.cc), the Chrome trace export
// (obs/query_trace.cc) and JSON log lines (common/logging.cc).
#ifndef VAQ_COMMON_JSON_H_
#define VAQ_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace vaq {

// `s` escaped for use inside a JSON string literal (without the quotes):
// backslash, quote, \n, \t and \r get their short escapes, every other
// byte below 0x20 becomes \u00XX, and all other bytes — UTF-8 multibyte
// sequences included — pass through unchanged.
inline std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace vaq

#endif  // VAQ_COMMON_JSON_H_
