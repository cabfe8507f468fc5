// Cross-commit golden digests of every JSON surface.
//
// tests/des/replay_golden_test.cpp pins report::trace_json; these
// constants pin the rest byte for byte: the schedule, robustness,
// timeline and metrics documents and the plan server's answers.  They
// are the oracle for the JSON writer: a change to how any document is
// laid out (a comma, an indent, a number format, a key order) fails
// here.  The CLI's fault-sweep document is pinned by cli.smoke.  A
// deliberate format change updates the constants in the same commit,
// stating why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "core/scheduler.hpp"
#include "engine/engine.hpp"
#include "engine/serve.hpp"
#include "obs/metrics.hpp"
#include "report/fault_report.hpp"
#include "report/metrics_report.hpp"
#include "report/schedule_json.hpp"
#include "report/timeline_report.hpp"
#include "search/driver.hpp"
#include "search/fault_stream.hpp"
#include "search/replan.hpp"
#include "sim/robustness.hpp"
#include "sim/timeline.hpp"

namespace nocsched::report {
namespace {

using core::PlannerParams;
using core::SystemModel;

/// 64-bit FNV-1a, rendered as fixed-width hex so a mismatch prints the
/// new constant ready to paste.
std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

SystemModel leon(const char* soc) {
  return SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
}

search::SearchOptions anneal(std::uint64_t iters) {
  search::SearchOptions opts;
  opts.strategy = search::StrategyKind::kAnneal;
  opts.iters = iters;
  opts.jobs = 1;
  return opts;
}

TEST(JsonGolden, ScheduleGreedy) {
  const SystemModel sys = leon("d695");
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  EXPECT_EQ(digest(schedule_json(sys, plan)), "0x3725c826d95a694c");
}

TEST(JsonGolden, ScheduleSearchedUnderAPowerLimit) {
  const SystemModel sys = leon("p22810");
  const search::SearchResult r = search::search_orders(
      sys, power::PowerBudget::fraction_of_total(sys.soc(), 0.5), anneal(32));
  EXPECT_EQ(digest(schedule_json(sys, r.best, &r.metrics)), "0xadc0c4ea622c819c");
}

TEST(JsonGolden, RobustnessWithReplan) {
  const SystemModel sys = leon("d695");
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const core::Schedule plan = core::plan_tests(sys, budget);
  noc::FaultSet faults;
  faults.fail_channel(0);
  faults.fail_channel(5);
  faults.fail_router(6);
  faults.fail_processor(sys.soc().processor_ids().front());
  const sim::RobustnessReport robustness = sim::assess_robustness(sys, plan, faults);
  const search::ReplanResult replanned = search::replan(sys, budget, faults, anneal(8));
  EXPECT_EQ(digest(robustness_json(sys, faults, robustness, &replanned)), "0x44f4ca8479f190a2");
  EXPECT_EQ(digest(robustness_json(sys, faults, robustness, nullptr)), "0xbc7dbf63adbbc6d4");
}

TEST(JsonGolden, TimelineOnAFixedStream) {
  const SystemModel sys = leon("d695");
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const core::Schedule plan = core::plan_tests(sys, budget);
  const search::FaultStream stream = search::random_fault_stream(sys, 3, 9, plan.makespan);
  const sim::TimelineResult result = sim::replay_timeline(sys, budget, stream, anneal(4));
  EXPECT_EQ(digest(timeline_json(sys, stream, result)), "0x306ab5ae1c00a055");
}

TEST(JsonGolden, MetricsOfADeterministicSnapshot) {
  obs::MetricsSnapshot snap;
  snap.counters = {{"planner.runs", 3}, {"search.evaluations", 18446744073709551615ULL}};
  snap.gauges = {{"search.best_makespan", 116449}, {"search.delta", -7}};
  snap.histograms["des.channel_busy_cycles"] = {{100, 1000}, {2, 0, 5}, 7, 4321};
  snap.histograms["empty"] = {{}, {0}, 0, 0};
  snap.info = {{"search.strategy", "anneal"}, {"quoted", "a \"b\"\tc"}};
  snap.wall = {{"wall.cli_total", 2.5}, {"wall.parse", 0.0004}};
  EXPECT_EQ(digest(metrics_json(snap)), "0x6937907ee3756f57");
  EXPECT_EQ(digest(metrics_json(obs::MetricsSnapshot{})), "0x2b84fcfdb65e0dad");
  // A real search record, as --metrics prints one.
  const SystemModel sys = leon("d695");
  const search::SearchResult r =
      search::search_orders(sys, power::PowerBudget::unconstrained(), anneal(16));
  EXPECT_EQ(digest(metrics_json(r.metrics)), "0xd10d4a1ed3d44572");
}

/// The plan server's answers, one per line, as serve writes them.
std::string answers(const std::vector<std::string>& lines) {
  engine::Engine eng;
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    try {
      out += engine::result_json(eng.run(engine::parse_request(lines[i], "golden", i + 1)));
    } catch (const Error& e) {
      out += engine::error_json(cat("line-", i + 1), e.what());
    }
    out += '\n';
  }
  return out;
}

TEST(JsonGolden, ServeAnswers) {
  EXPECT_EQ(digest(answers({R"({"id": "ok", "soc": "d695", "procs": 4})"})), "0x732780a96f68122e");
  EXPECT_EQ(
      digest(answers({R"({"id": "s", "soc": "p22810", "search": "anneal", "iters": 16})"})),
      "0xbed806ac25b7276e");
  EXPECT_EQ(digest(answers({R"({"id": "f", "soc": "d695", "procs": 4, )"
                            R"("faults": {"links": ["0:1"], "routers": [5], "procs": [11]}})"})),
            "0x550ef2b363deb3b7");
  EXPECT_EQ(digest(answers({R"({"id": "sim", "soc": "d695", "simulate": true, "power": 50})"})),
            "0xf0a41bdfcd66bb66");
  EXPECT_EQ(digest(answers({R"({"id": "rand", "soc": "rand:7", "procs": 2})"})), "0xd0e8250cc3334912");
  // An execution error, a parse error, and an id that needs escaping.
  EXPECT_EQ(digest(answers({R"({"id": "e", "soc": "d695", "faults": {"procs": [1]}})",
                            R"({"id": "x")"})),
            "0xe149b67f376adbce");
  EXPECT_EQ(digest(engine::error_json("a\"b\\c\n", "tab\there")), "0x10e805a3f0ea7bb6");
}

}  // namespace
}  // namespace nocsched::report
