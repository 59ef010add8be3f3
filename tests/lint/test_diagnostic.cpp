#include "src/lint/diagnostic.hpp"

#include <gtest/gtest.h>

namespace castanet::lint {
namespace {

Diagnostic mk(const char* rule, Severity sev) {
  return {rule, sev, "netlist", "signal 's'", "message", "hint"};
}

TEST(Report, CountsPerSeverity) {
  Report r;
  r.add(mk("NET-A", Severity::kError));
  r.add(mk("NET-B", Severity::kWarning));
  r.add(mk("NET-B", Severity::kWarning));
  r.add(mk("NET-C", Severity::kNote));
  EXPECT_EQ(r.errors(), 1u);
  EXPECT_EQ(r.warnings(), 2u);
  EXPECT_EQ(r.notes(), 1u);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.diagnostics().size(), 4u);
}

TEST(Report, HasAndByRule) {
  Report r;
  r.add(mk("NET-A", Severity::kError));
  r.add(mk("NET-B", Severity::kNote));
  r.add(mk("NET-B", Severity::kNote));
  EXPECT_TRUE(r.has("NET-A"));
  EXPECT_TRUE(r.has("NET-B"));
  EXPECT_FALSE(r.has("NET-C"));
  EXPECT_EQ(r.by_rule("NET-B").size(), 2u);
  EXPECT_EQ(r.by_rule("NET-C").size(), 0u);
}

TEST(Report, MergeAppends) {
  Report a;
  a.add(mk("NET-A", Severity::kError));
  Report b;
  b.add(mk("BRD-B", Severity::kWarning));
  a.merge(b);
  EXPECT_EQ(a.diagnostics().size(), 2u);
  EXPECT_TRUE(a.has("BRD-B"));
}

TEST(Report, TextOrdersErrorsFirstAndSummarizes) {
  Report r;
  r.add(mk("NET-NOTE", Severity::kNote));
  r.add(mk("NET-ERR", Severity::kError));
  r.add(mk("NET-WARN", Severity::kWarning));
  const std::string text = r.to_text();
  const auto err = text.find("NET-ERR");
  const auto warn = text.find("NET-WARN");
  const auto note = text.find("NET-NOTE");
  ASSERT_NE(err, std::string::npos);
  ASSERT_NE(warn, std::string::npos);
  ASSERT_NE(note, std::string::npos);
  EXPECT_LT(err, warn);
  EXPECT_LT(warn, note);
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 1 note(s)"),
            std::string::npos);
  EXPECT_NE(text.find("(fix: hint)"), std::string::npos);
}

TEST(Report, JsonEscapesAndCounts) {
  Report r;
  r.add({"NET-A", Severity::kError, "netlist", "signal \"q\"", "line1\nline2",
         ""});
  const json::Value js = r.to_json();
  ASSERT_EQ(js.find("diagnostics")->as_array().size(), 1u);
  const json::Value& d = js.find("diagnostics")->as_array()[0];
  EXPECT_EQ(d.string_or("location", ""), "signal \"q\"");
  EXPECT_EQ(d.string_or("message", ""), "line1\nline2");
  EXPECT_EQ(d.string_or("severity", ""), "error");
  EXPECT_EQ(js.int_or("errors", -1), 1);
  // The text form escapes both, and parses back to the same document.
  const std::string text = js.dump();
  EXPECT_NE(text.find("\\\"q\\\""), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_EQ(json::parse(text).dump(), text);
}

TEST(Report, EmptyJsonIsWellFormed) {
  Report r;
  const json::Value js = r.to_json();
  ASSERT_NE(js.find("diagnostics"), nullptr);
  EXPECT_TRUE(js.find("diagnostics")->as_array().empty());
  EXPECT_EQ(js.int_or("errors", -1), 0);
  EXPECT_EQ(json::parse(js.dump(2)).dump(), js.dump());
}

TEST(Report, ThrowIfRespectsThreshold) {
  Report r;
  r.add(mk("NET-WARN", Severity::kWarning));
  EXPECT_NO_THROW(r.throw_if(Severity::kError));
  EXPECT_THROW(r.throw_if(Severity::kWarning), LintError);
  try {
    r.throw_if(Severity::kNote);
  } catch (const LintError& e) {
    EXPECT_NE(std::string(e.what()).find("NET-WARN"), std::string::npos);
  }
}

TEST(Report, CleanReportNeverThrows) {
  Report r;
  EXPECT_NO_THROW(r.throw_if(Severity::kNote));
}

// --- JSON schema / structural round-trip ------------------------------------

TEST(ReportJson, ValueRoundTripPreservesEverything) {
  Report r;
  r.add(mk("NET-A", Severity::kError));
  r.add({"DF-STUCK", Severity::kWarning, "dataflow", "rtl: signal 'y'",
         "provably constant", "tie it off"});
  r.note_suppressed();
  r.note_suppressed();
  const Report back = Report::from_json(json::parse(r.to_json().dump(2)));
  EXPECT_EQ(back.to_json().dump(), r.to_json().dump());
  EXPECT_EQ(back.diagnostics().size(), 2u);
  EXPECT_EQ(back.suppressed(), 2u);
  EXPECT_TRUE(back.has("DF-STUCK"));
  EXPECT_EQ(back.by_rule("DF-STUCK").front()->fix_hint, "tie it off");
}

TEST(ReportJson, ValidateAcceptsMultiDesignWrapper) {
  Report a;
  a.add(mk("NET-A", Severity::kWarning));
  json::Value doc{json::Object{}};
  doc.set("switch", a.to_json());
  doc.set("board", Report().to_json());
  EXPECT_EQ(validate_lint_json(doc.dump(2)), "");
}

TEST(ReportJson, ValidateRejectsTamperedCounts) {
  Report r;
  r.add(mk("NET-A", Severity::kError));
  json::Value js = r.to_json();
  ASSERT_EQ(js.int_or("errors", -1), 1);
  EXPECT_EQ(validate_lint_json(js.dump()), "");
  js.set("errors", 0);
  EXPECT_NE(validate_lint_json(js.dump()), "");
}

TEST(ReportJson, ValidateRejectsUnknownKeysAndGarbage) {
  Report r;
  json::Value js = r.to_json();
  js.set("extra", true);
  EXPECT_NE(validate_lint_json(js.dump()), "");
  EXPECT_NE(validate_lint_json("not json"), "");
  EXPECT_NE(validate_lint_json("[]"), "");
  EXPECT_NE(validate_lint_json("{}"), "");
  EXPECT_NE(validate_lint_json("{\"switch\": 3}"), "");
}

TEST(ReportJson, FromJsonRejectsMalformedReports) {
  EXPECT_THROW(Report::from_json(json::parse("{}")), LintError);
  EXPECT_THROW(
      Report::from_json(json::parse(
          "{\"diagnostics\": [{\"rule\": \"X\", \"severity\": \"fatal\"}], "
          "\"errors\": 0, \"warnings\": 0, \"notes\": 0, \"suppressed\": 0}")),
      LintError);
}

TEST(Severity, ToString) {
  EXPECT_STREQ(to_string(Severity::kNote), "note");
  EXPECT_STREQ(to_string(Severity::kWarning), "warning");
  EXPECT_STREQ(to_string(Severity::kError), "error");
}

}  // namespace
}  // namespace castanet::lint
