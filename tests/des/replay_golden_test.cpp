// Cross-commit golden digests of the replay's observable output.
//
// The property suites prove the replay deterministic within one build;
// they cannot notice a change that shifts every trace the same way in
// every build.  These constants pin report::trace_json (and, for the
// degraded case, the lost-session list) byte for byte across commits:
// a refactor of des::Replayer that moves any observed cycle, blocked
// count, channel statistic or loss reason fails here.  A deliberate
// model change updates the constants in the same commit, stating why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "report/trace_report.hpp"
#include "sim/cross_check.hpp"

namespace nocsched::des {
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

std::string greedy_trace_json(const char* soc) {
  const SystemModel sys = leon(soc);
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  const SimTrace trace = replay(sys, plan);
  return report::trace_json(sys, trace, sim::cross_check(sys, plan, trace));
}

TEST(ReplayGolden, GreedyD695) {
  EXPECT_EQ(digest(greedy_trace_json("d695")), "0xc5abe8e331a0f20a");
}

TEST(ReplayGolden, GreedyP22810) {
  EXPECT_EQ(digest(greedy_trace_json("p22810")), "0x307df265317bbe31");
}

TEST(ReplayGolden, GreedyP93791) {
  EXPECT_EQ(digest(greedy_trace_json("p93791")), "0x7d3b1fe84c96b0c1");
}

TEST(ReplayGolden, DegradedD695WithLostSessions) {
  const SystemModel sys = leon("d695");
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  // Two dead links (forcing detours) and the first reused processor
  // (losing its own test and, transitively, every session it served).
  noc::FaultSet faults;
  faults.fail_channel(0);
  faults.fail_channel(5);
  faults.fail_processor(sys.soc().processor_ids().front());
  // The scenario must exercise a detour, not only losses: the pristine
  // replay sends traffic over a channel that is now dead.
  bool crosses_dead_link = false;
  for (const ChannelUse& c : replay(sys, plan).channels) {
    crosses_dead_link |= c.packets > 0 && faults.channel_failed(c.channel);
  }
  ASSERT_TRUE(crosses_dead_link);
  const DegradedReplay degraded = replay_degraded(sys, plan, faults);
  ASSERT_FALSE(degraded.lost.empty());
  std::string bytes =
      report::trace_json(sys, degraded.trace, sim::cross_check(sys, plan, degraded.trace));
  for (const LostSession& l : degraded.lost) {
    bytes += std::to_string(l.module_id) + ": " + l.reason + "\n";
  }
  EXPECT_EQ(digest(bytes), "0x634c2681b64f16fb");
}

}  // namespace
}  // namespace nocsched::des
