#pragma once
// Reporters for hemo-lint diagnostics: a compiler-style text listing and
// a SARIF-lite JSON document, stable enough for CI to diff lint baselines
// across PRs (same schema keys, sorted records).

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"

namespace hemo::analysis {

/// "file:line: severity: [RULE] message" lines followed by per-rule and
/// per-severity summary counts.  Diagnostics are printed in the order
/// given (callers usually sort first).
std::string text_report(const std::vector<Diagnostic>& diagnostics);

/// SARIF-lite JSON:
///   {"version": "hemo-lint/1",
///    "results": [{"ruleId", "level", "file", "line", "message", "fixit"}],
///    "summary": {"total": N, "byRule": {...}, "bySeverity": {...}}}
/// Records keep the caller's order; keys are emitted sorted.
std::string json_report(const std::vector<Diagnostic>& diagnostics);

}  // namespace hemo::analysis
