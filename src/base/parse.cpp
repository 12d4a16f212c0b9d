#include "base/parse.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace hemo {

bool parse_int(const std::string& text, int* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX)
    return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_double(const std::string& text, double* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE || std::isnan(v))
    return false;
  *out = v;
  return true;
}

}  // namespace hemo
