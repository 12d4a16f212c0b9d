#include "base/format.hpp"

#include <cstdio>

namespace hemo {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

}  // namespace hemo
