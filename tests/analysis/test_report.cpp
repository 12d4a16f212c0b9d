// Reporter tests: the text listing is compiler-style, the JSON document
// is well-formed and stable (CI diffs lint baselines across PRs), and
// aggregation helpers count correctly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/report.hpp"
#include "base/format.hpp"

namespace analysis = hemo::analysis;
using analysis::Diagnostic;
using analysis::Severity;

namespace {

std::vector<Diagnostic> sample() {
  return {
      {"HL002", Severity::kError, "cudax/streaming.cpp", 9,
       "uninitialized dim3 declaration", "initialize at the declaration"},
      {"HL006", Severity::kWarning, "cudax/streaming.cpp", 12,
       "hard-coded work-group geometry", ""},
      {"LC001", Severity::kError, "lattice", 0, "out-of-bounds neighbor", ""},
  };
}

}  // namespace

TEST(Report, TextListsLocationsAndSummary) {
  const std::string text = analysis::text_report(sample());
  EXPECT_NE(text.find("cudax/streaming.cpp:9: error: [HL002]"),
            std::string::npos);
  EXPECT_NE(text.find("cudax/streaming.cpp:12: warning: [HL006]"),
            std::string::npos);
  // Line 0 means "not line-oriented": no colon-zero suffix.
  EXPECT_NE(text.find("lattice: error: [LC001]"), std::string::npos);
  EXPECT_EQ(text.find("lattice:0"), std::string::npos);
  EXPECT_NE(text.find("3 diagnostics"), std::string::npos);
  EXPECT_NE(text.find("2 errors"), std::string::npos);
  EXPECT_NE(text.find("fixit: initialize at the declaration"),
            std::string::npos);
}

TEST(Report, TextHandlesEmptyInput) {
  const std::string text = analysis::text_report({});
  EXPECT_NE(text.find("0 diagnostics"), std::string::npos);
}

TEST(Report, JsonCarriesSchemaRecordsAndSummary) {
  const std::string json = analysis::json_report(sample());
  EXPECT_NE(json.find("\"version\": \"hemo-lint/1\""), std::string::npos);
  EXPECT_NE(json.find("{\"ruleId\": \"HL002\", \"level\": \"error\", "
                      "\"file\": \"cudax/streaming.cpp\", \"line\": 9,"),
            std::string::npos);
  EXPECT_NE(json.find("\"summary\": {\"total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"byRule\": {\"HL002\": 1, \"HL006\": 1, "
                      "\"LC001\": 1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"bySeverity\": {\"warning\": 1, \"error\": 2}"),
            std::string::npos);
}

TEST(Report, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(hemo::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(hemo::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(hemo::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(hemo::json_escape(std::string("a\x01""b")), "a\\u0001b");
}

TEST(Report, JsonHandlesEmptyInput) {
  const std::string json = analysis::json_report({});
  EXPECT_NE(json.find("\"results\": []"), std::string::npos);
  EXPECT_NE(json.find("\"total\": 0"), std::string::npos);
}

TEST(Diagnostics, SortIsStableByFileLineRule) {
  std::vector<Diagnostic> ds = {
      {"HL006", Severity::kWarning, "b.cpp", 3, "m", ""},
      {"HL002", Severity::kError, "a.cpp", 9, "m", ""},
      {"HL001", Severity::kWarning, "a.cpp", 9, "m", ""},
  };
  analysis::sort_diagnostics(ds);
  EXPECT_EQ(ds[0].rule_id, "HL001");
  EXPECT_EQ(ds[1].rule_id, "HL002");
  EXPECT_EQ(ds[2].file, "b.cpp");
}

TEST(Diagnostics, CountsBySeverityAndRule) {
  const std::vector<Diagnostic> ds = sample();
  EXPECT_EQ(analysis::count_at(ds, Severity::kError), 2);
  EXPECT_EQ(analysis::count_at(ds, Severity::kWarning), 1);
  EXPECT_EQ(analysis::count_at(ds, Severity::kNote), 0);
  const auto by_file = analysis::count_by_file(ds);
  EXPECT_EQ(by_file.at("cudax/streaming.cpp"), 2);
  EXPECT_EQ(by_file.at("lattice"), 1);
}
