// Golden-diagnostic tests for nocsched-lint.
//
// Each fixture under fixtures/ is linted under a "pretend" repo path
// that puts it in the right rule scope, and the resulting (line, rule)
// set must exactly match the `expect[RULE]` markers embedded in the
// fixture's comments.  Clean twins carry no markers and must produce
// no findings.  The CLI binary itself is exercised end-to-end against
// a throwaway tree.

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "lint.hpp"

namespace fs = std::filesystem;
using nocsched::lint::Diagnostic;

namespace {

std::string read_fixture(const std::string& name) {
  const fs::path p = fs::path(NOCSCHED_LINT_FIXTURE_DIR) / name;
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << p;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// `expect[RULE]` markers in the fixture text, as (line, rule) pairs.
std::multiset<std::pair<int, std::string>> parse_expects(const std::string& text) {
  std::multiset<std::pair<int, std::string>> out;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t pos = 0;
    while ((pos = line.find("expect[", pos)) != std::string::npos) {
      pos += 7;
      const std::size_t close = line.find(']', pos);
      EXPECT_NE(close, std::string::npos) << "unterminated expect marker, line " << lineno;
      if (close == std::string::npos) break;
      out.emplace(lineno, line.substr(pos, close - pos));
    }
  }
  return out;
}

std::multiset<std::pair<int, std::string>> found_set(const std::vector<Diagnostic>& diags) {
  std::multiset<std::pair<int, std::string>> out;
  for (const Diagnostic& d : diags) out.emplace(d.line, d.rule);
  return out;
}

std::string describe(const std::multiset<std::pair<int, std::string>>& s) {
  std::ostringstream os;
  for (const auto& [line, rule] : s) os << "  line " << line << ": " << rule << "\n";
  return os.str();
}

struct Fixture {
  const char* file;
  const char* pretend_path;  ///< repo-relative path used for scoping
};

// Pretend paths place each fixture inside the scope its rule targets
// (and clean twins in the same scope, proving the rule stays quiet).
const Fixture kFixtures[] = {
    {"d1_violation.cpp", "src/des/d1_violation.cpp"},
    {"d1_clean.cpp", "src/des/d1_clean.cpp"},
    {"d2_violation.cpp", "src/sim/d2_violation.cpp"},
    {"d2_clean.cpp", "src/sim/d2_clean.cpp"},
    {"d3_violation.cpp", "src/search/d3_violation.cpp"},
    {"d3_clean.cpp", "src/search/d3_clean.cpp"},
    {"d4_violation.cpp", "src/noc/d4_violation.cpp"},
    {"d4_clean.cpp", "src/noc/d4_clean.cpp"},
    {"d4_planner_state_violation.cpp", "src/search/d4_planner_state_violation.cpp"},
    {"d4_planner_state_clean.cpp", "src/search/d4_planner_state_clean.cpp"},
    {"d4_engine_violation.cpp", "src/engine/d4_engine_violation.cpp"},
    {"d4_engine_clean.cpp", "src/engine/d4_engine_clean.cpp"},
    {"d5_violation.cpp", "src/itc02/d5_violation.cpp"},
    {"d5_clean.cpp", "src/itc02/d5_clean.cpp"},
    {"d5_wire_violation.cpp", "src/engine/d5_wire_violation.cpp"},
    {"d5_wire_clean.cpp", "src/engine/d5_wire_clean.cpp"},
    {"d6_violation.cpp", "src/search/d6_violation.cpp"},
    {"d6_clean.cpp", "src/core/d6_clean.cpp"},
    {"suppress.cpp", "src/itc02/suppress.cpp"},
    {"s1_zone.cpp", "src/core/s1_zone.cpp"},
};

TEST(LintGolden, FixturesMatchExpectMarkers) {
  for (const Fixture& f : kFixtures) {
    SCOPED_TRACE(f.file);
    const std::string text = read_fixture(f.file);
    const auto expected = parse_expects(text);
    const auto found = found_set(nocsched::lint::lint_source(f.pretend_path, text));
    EXPECT_EQ(expected, found) << "expected:\n"
                               << describe(expected) << "found:\n"
                               << describe(found);
  }
}

TEST(LintGolden, CleanTwinsProduceNoFindings) {
  for (const char* name :
       {"d1_clean.cpp", "d2_clean.cpp", "d3_clean.cpp", "d4_clean.cpp",
        "d4_planner_state_clean.cpp", "d4_engine_clean.cpp", "d5_clean.cpp",
        "d5_wire_clean.cpp", "d6_clean.cpp"}) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(parse_expects(read_fixture(name)).empty())
        << "clean fixtures must not carry expect markers";
  }
}

TEST(LintScoping, OwnerFileIsExemptFromD4ForItsOwnType) {
  const std::string text = read_fixture("d4_violation.cpp");
  // Same content pretend-located in PairTable's owning file: the
  // PairTable findings vanish, the SystemModel ones stay.
  const auto diags = nocsched::lint::lint_source("src/core/pair_table.cpp", text);
  ASSERT_FALSE(diags.empty());
  bool saw_system_model = false;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.message.find("PairTable"), std::string::npos) << d.message;
    if (d.message.find("SystemModel") != std::string::npos) saw_system_model = true;
  }
  EXPECT_TRUE(saw_system_model);
  const auto everywhere = nocsched::lint::lint_source("src/noc/x.cpp", text);
  EXPECT_LT(diags.size(), everywhere.size());
}

TEST(LintScoping, PathsOutsideScopeAreIgnored) {
  const std::string text = read_fixture("d5_violation.cpp");
  EXPECT_TRUE(nocsched::lint::lint_source("tools/lint/demo.cpp", text).empty());
  EXPECT_TRUE(nocsched::lint::lint_source("tests/itc02/demo.cpp", text).empty());
  // D5 covers parser code only: the same text elsewhere in src/ is out
  // of scope.
  EXPECT_TRUE(nocsched::lint::lint_source("src/core/demo.cpp", text).empty());
}

TEST(LintScoping, RuleAppliesMatchesTheCatalogue) {
  using nocsched::lint::rule_applies;
  EXPECT_TRUE(rule_applies("D1", "src/des/engine.cpp"));
  EXPECT_FALSE(rule_applies("D1", "tools/lint/rules.cpp"));
  EXPECT_TRUE(rule_applies("D2", "src/core/pair_table.cpp"));
  EXPECT_FALSE(rule_applies("D2", "src/common/rng.hpp"));  // the sanctioned source
  EXPECT_TRUE(rule_applies("D3", "src/search/anneal.cpp"));
  EXPECT_FALSE(rule_applies("D3", "src/core/system_model.cpp"));
  EXPECT_TRUE(rule_applies("D5", "src/itc02/parser.cpp"));
  EXPECT_FALSE(rule_applies("D5", "src/report/tables.cpp"));
  EXPECT_TRUE(rule_applies("D5", "src/engine/request.cpp"));
  EXPECT_TRUE(rule_applies("D5", "src/common/line_scanner.cpp"));
  EXPECT_TRUE(rule_applies("D5", "src/common/line_scanner.hpp"));
  EXPECT_TRUE(rule_applies("D5", "src/search/fault_stream.cpp"));
  EXPECT_FALSE(rule_applies("D5", "src/search/driver.cpp"));
  EXPECT_FALSE(rule_applies("D5", "src/common/strings.cpp"));
  EXPECT_TRUE(rule_applies("D6", "src/core/scheduler.cpp"));
  EXPECT_TRUE(rule_applies("D6", "src/search/driver.cpp"));
  EXPECT_FALSE(rule_applies("D6", "src/des/replay.cpp"));
  EXPECT_FALSE(rule_applies("D2", "src/obs/clock.cpp"));  // the sanctioned clock
  EXPECT_TRUE(rule_applies("D2", "src/obs/metrics.cpp"));
  EXPECT_TRUE(rule_applies("D4", "src/engine/engine.cpp"));
  EXPECT_TRUE(rule_applies("S1", "src/core/schedule.cpp"));
  EXPECT_TRUE(rule_applies("S1", "src/search/driver.cpp"));
  EXPECT_TRUE(rule_applies("S1", "src/engine/serve.cpp"));
  EXPECT_FALSE(rule_applies("S1", "src/itc02/parser.cpp"));
}

TEST(LintSuppression, AllowedRulesAreSilencedOnlyWhereScoped) {
  const std::string text = read_fixture("suppress.cpp");
  const auto found = found_set(nocsched::lint::lint_source("src/itc02/suppress.cpp", text));
  EXPECT_EQ(parse_expects(text), found) << describe(found);
}

TEST(LintSuppression, SuppressionsInCoreZoneBecomeS1Findings) {
  const std::string text = read_fixture("s1_zone.cpp");
  const auto found = found_set(nocsched::lint::lint_source("src/core/s1_zone.cpp", text));
  EXPECT_EQ(parse_expects(text), found) << describe(found);
  // The identical comments outside the zone are legal and silent.
  EXPECT_TRUE(nocsched::lint::lint_source("src/itc02/s1_zone.cpp", text).empty());
}

TEST(LintFormat, TextIsFileLineColRuleMessage) {
  const std::vector<Diagnostic> diags = {
      {"src/des/engine.cpp", 12, 3, "D1", "iteration over unordered container"}};
  EXPECT_EQ(nocsched::lint::format_text(diags),
            "src/des/engine.cpp:12:3: [D1] iteration over unordered container\n");
}

TEST(LintFormat, JsonCarriesBackendCountAndEscapes) {
  const std::vector<Diagnostic> diags = {
      {"src/a.cpp", 1, 2, "D2", "bad \"call\" with \\ backslash"}};
  const std::string json = nocsched::lint::format_json(diags, "token");
  EXPECT_NE(json.find("\"tool\": \"nocsched-lint\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\": \"token\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"D2\""), std::string::npos) << json;
  EXPECT_NE(json.find("bad \\\"call\\\" with \\\\ backslash"), std::string::npos) << json;
}

TEST(LintFormat, DiagLessOrdersByFileLineColRule) {
  const Diagnostic a{"a.cpp", 5, 1, "D1", ""};
  const Diagnostic b{"a.cpp", 5, 1, "D2", ""};
  const Diagnostic c{"a.cpp", 6, 1, "D1", ""};
  const Diagnostic d{"b.cpp", 1, 1, "D1", ""};
  EXPECT_TRUE(nocsched::lint::diag_less(a, b));
  EXPECT_TRUE(nocsched::lint::diag_less(b, c));
  EXPECT_TRUE(nocsched::lint::diag_less(c, d));
  EXPECT_FALSE(nocsched::lint::diag_less(b, a));
}

// ---------------------------------------------------------------------------
// CLI end-to-end: exit codes and JSON output of the installed binary.

int run_lint(const std::string& args, const fs::path& stdout_file) {
  const std::string cmd =
      std::string(NOCSCHED_LINT_BIN) + " " + args + " > " + stdout_file.string() + " 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(LintCli, ViolatingTreeExitsOneWithJsonFindings) {
  const fs::path root = fs::path(testing::TempDir()) / "lint_cli_bad";
  fs::create_directories(root / "src" / "itc02");
  std::ofstream(root / "src" / "itc02" / "bad.cpp") << read_fixture("d5_violation.cpp");
  const fs::path out = root / "out.json";
  EXPECT_EQ(run_lint("--root " + root.string() + " --format json", out), 1);
  const std::string json = slurp(out);
  EXPECT_NE(json.find("\"rule\": \"D5\""), std::string::npos) << json;
  EXPECT_NE(json.find("src/itc02/bad.cpp"), std::string::npos) << json;
  fs::remove_all(root);
}

TEST(LintCli, CleanTreeExitsZero) {
  const fs::path root = fs::path(testing::TempDir()) / "lint_cli_clean";
  fs::create_directories(root / "src" / "core");
  std::ofstream(root / "src" / "core" / "ok.cpp")
      << "namespace core {\nint answer() { return 42; }\n}  // namespace core\n";
  const fs::path out = root / "out.txt";
  EXPECT_EQ(run_lint("--root " + root.string(), out), 0);
  fs::remove_all(root);
}

TEST(LintCli, ListRulesNamesTheCatalogue) {
  const fs::path out = fs::path(testing::TempDir()) / "lint_rules.txt";
  EXPECT_EQ(run_lint("--list-rules", out), 0);
  const std::string text = slurp(out);
  for (const char* rule : {"D1", "D2", "D3", "D4", "D5", "D6", "S1"}) {
    EXPECT_NE(text.find(rule), std::string::npos) << text;
  }
  fs::remove(out);
}

}  // namespace
