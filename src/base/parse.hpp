#pragma once
// Checked number parsing for command-line values: the whole text must be
// one number, and a value the target type cannot hold is refused rather
// than narrowed or saturated.  Callers bound the result themselves.

#include <string>

namespace hemo {

/// A whole decimal int: no trailing characters, nothing outside int.
bool parse_int(const std::string& text, int* out);

/// A whole decimal double: no trailing characters, not NaN, and not out
/// of double range.
bool parse_double(const std::string& text, double* out);

}  // namespace hemo
