#include "analysis/report.hpp"

#include <sstream>

#include "base/format.hpp"

namespace hemo::analysis {

std::string text_report(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << d.file;
    if (d.line > 0) out << ':' << d.line;
    out << ": " << severity_name(d.severity) << ": [" << d.rule_id << "] "
        << d.message << '\n';
    if (!d.fixit_hint.empty()) out << "    fixit: " << d.fixit_hint << '\n';
  }

  const auto by_rule = count_by_rule(diagnostics);
  const auto by_severity = count_by_severity(diagnostics);
  out << '\n' << diagnostics.size() << " diagnostic"
      << (diagnostics.size() == 1 ? "" : "s");
  if (!diagnostics.empty()) {
    out << " (";
    bool first = true;
    for (const auto& [sev, count] : by_severity) {
      if (!first) out << ", ";
      first = false;
      out << count << ' ' << severity_name(sev)
          << (count == 1 ? "" : "s");
    }
    out << ')';
  }
  out << '\n';
  for (const auto& [rule, count] : by_rule)
    out << "  " << rule << ": " << count << '\n';
  return out.str();
}

std::string json_report(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "{\n  \"version\": \"hemo-lint/1\",\n  \"results\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"ruleId\": \"" << json_escape(d.rule_id) << "\", "
        << "\"level\": \"" << severity_name(d.severity) << "\", "
        << "\"file\": \"" << json_escape(d.file) << "\", "
        << "\"line\": " << d.line << ", "
        << "\"message\": \"" << json_escape(d.message) << "\", "
        << "\"fixit\": \"" << json_escape(d.fixit_hint) << "\"}";
  }
  out << (diagnostics.empty() ? "" : "\n  ") << "],\n";

  out << "  \"summary\": {\"total\": " << diagnostics.size()
      << ", \"byRule\": {";
  bool first = true;
  for (const auto& [rule, count] : count_by_rule(diagnostics)) {
    if (!first) out << ", ";
    first = false;
    out << '"' << json_escape(rule) << "\": " << count;
  }
  out << "}, \"bySeverity\": {";
  first = true;
  for (const auto& [sev, count] : count_by_severity(diagnostics)) {
    if (!first) out << ", ";
    first = false;
    out << '"' << severity_name(sev) << "\": " << count;
  }
  out << "}}\n}\n";
  return out.str();
}

}  // namespace hemo::analysis
