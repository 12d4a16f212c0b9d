#pragma once
// Text formatting shared by the machine-readable writers: the campaign
// CSV/JSON sinks, the serve wire protocol, the lint report and the chaos
// harness verdict.

#include <string>

namespace hemo {

/// The body of a JSON string literal: quote and backslash escaped, \n and
/// \t by name, every other control byte as \u00XX.
std::string json_escape(const std::string& text);

/// A double as %.9g, the number format of every machine-readable sink, so
/// the CSV/JSON files and the serve wire carry the same digits.
std::string fmt_double(double v);

}  // namespace hemo
