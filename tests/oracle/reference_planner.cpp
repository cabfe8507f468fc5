#include "oracle/reference_planner.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "oracle/reservation.hpp"
#include "power/profile.hpp"

namespace nocsched::oracle {

namespace {

using core::ChannelModel;
using core::Endpoint;
using core::PairChoice;
using core::PairOrder;
using core::PairTable;
using core::ResourceChoice;
using core::Schedule;
using core::Session;
using core::SessionPlan;
using core::SystemModel;

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Per-channel bandwidth bookkeeping for ChannelModel::kMultiplexed —
/// each channel carries any mix of streams whose occupancies sum to at
/// most full capacity (1.0 flit-slots per cycle).
class ChannelLoadTable {
 public:
  explicit ChannelLoadTable(int channels) : load_(static_cast<std::size_t>(channels)) {}

  bool fits(std::span<const noc::ChannelId> path, const Interval& iv, double bw) const {
    for (noc::ChannelId c : path) {
      if (!load_[static_cast<std::size_t>(c)].fits(iv, bw, 1.0)) return false;
    }
    return true;
  }

  void add(std::span<const noc::ChannelId> path, const Interval& iv, double bw) {
    for (noc::ChannelId c : path) {
      load_[static_cast<std::size_t>(c)].add(iv, bw);
    }
  }

  /// Earliest profile breakpoint after `t` on any channel of `path`.
  std::optional<std::uint64_t> next_change_after(std::span<const noc::ChannelId> path,
                                                 std::uint64_t t) const {
    std::optional<std::uint64_t> best;
    for (noc::ChannelId c : path) {
      const auto n = load_[static_cast<std::size_t>(c)].next_change_after(t);
      if (n && (!best || *n < *best)) best = n;
    }
    return best;
  }

 private:
  std::vector<power::PowerProfile> load_;
};

struct ResourceState {
  Endpoint ep;
  IntervalSet busy;
  /// Earliest instant this resource may serve a session: 0 for the ATE
  /// ports, the end of the processor's own test once that is committed,
  /// kNever for processors whose test is not yet planned.
  std::uint64_t available_from = 0;
};

/// A fully-determined candidate: (core, pair, start, plan).  The plan
/// points into the planner's PairTable, which outlives every candidate,
/// so probing allocates nothing.
struct Candidate {
  std::size_t source = 0;
  std::size_t sink = 0;
  std::uint64_t start = 0;
  const SessionPlan* plan = nullptr;
};

class Planner {
 public:
  Planner(const SystemModel& sys, const power::PowerBudget& budget, std::vector<int> order,
          const PairTable& table, std::span<const int> pretested = {})
      : sys_(sys),
        budget_(budget),
        table_(table),
        reservations_(sys.mesh()),
        channel_load_(sys.mesh().channel_count()),
        order_(std::move(order)) {
    for (const Endpoint& ep : sys_.endpoints()) {
      ResourceState rs;
      rs.ep = ep;
      rs.available_from = ep.is_processor() ? kNever : 0;
      // Pretested processors (tested in an earlier timeline epoch)
      // serve from instant 0 — their own test is not part of this plan.
      if (ep.is_processor()) {
        for (const int id : pretested) {
          if (ep.processor_module == id) rs.available_from = 0;
        }
      }
      resources_.push_back(std::move(rs));
    }
    // Feasibility precheck: every core offered for planning must have at
    // least one pair whose session power fits the budget in isolation.
    // (Iterating the order — not the SoC — is what lets the fault-aware
    // replanner plan a surviving subset; for a full order they agree.)
    for (const int id : order_) {
      ++prechecks_;
      const double cheapest = table_.cheapest_power(id);
      ensure(cheapest <= budget_.limit, "infeasible: module ", id, " ('",
             sys_.soc().module(id).name, "') needs at least ", cheapest,
             " power but the budget is ", budget_.limit);
    }
  }

  Schedule run() {
    switch (sys_.params().resource_choice) {
      case ResourceChoice::kFirstAvailable:
        run_first_available();
        break;
      case ResourceChoice::kEarliestCompletion:
        run_earliest_completion();
        break;
    }
    return finish();
  }

 private:
  // ----- shared helpers -------------------------------------------------

  bool resources_free(std::size_t s, std::size_t k, const Interval& iv) const {
    if (resources_[s].available_from > iv.start || resources_[s].busy.conflicts(iv)) {
      return false;
    }
    if (k == s) return true;
    return resources_[k].available_from <= iv.start && !resources_[k].busy.conflicts(iv);
  }

  bool paths_free(const SessionPlan& plan, const Interval& iv) const {
    if (sys_.params().channel_model == ChannelModel::kCircuit) {
      return reservations_.path_free(plan.path_in, iv) &&
             reservations_.path_free(plan.path_out, iv);
    }
    return channel_load_.fits(plan.path_in, iv, plan.bandwidth_in) &&
           channel_load_.fits(plan.path_out, iv, plan.bandwidth_out);
  }

  void commit(int module_id, const Candidate& c) {
    const SessionPlan& plan = *c.plan;
    const Interval iv{c.start, c.start + plan.duration};
    resources_[c.source].busy.insert(iv);
    if (c.sink != c.source) resources_[c.sink].busy.insert(iv);
    if (sys_.params().channel_model == ChannelModel::kCircuit) {
      reservations_.reserve(plan.path_in, iv);
      reservations_.reserve(plan.path_out, iv);
    } else {
      channel_load_.add(plan.path_in, iv, plan.bandwidth_in);
      channel_load_.add(plan.path_out, iv, plan.bandwidth_out);
    }
    profile_.add(iv, plan.power);

    Session session;
    session.module_id = module_id;
    session.source_resource = static_cast<int>(c.source);
    session.sink_resource = static_cast<int>(c.sink);
    session.start = iv.start;
    session.end = iv.end;
    session.power = plan.power;
    session.path_in = plan.path_in;
    session.path_out = plan.path_out;
    session.bandwidth_in = plan.bandwidth_in;
    session.bandwidth_out = plan.bandwidth_out;
    sessions_.push_back(std::move(session));
    ends_.insert(iv.end);
    ++commits_;

    // The module just planned might itself be a reusable processor.
    for (ResourceState& rs : resources_) {
      if (rs.ep.is_processor() && rs.ep.processor_module == module_id) {
        rs.available_from = iv.end;
      }
    }
  }

  // ----- the paper's greedy (first available) ----------------------------

  void run_first_available() {
    std::vector<int> pending = order_;
    std::uint64_t t = 0;
    while (!pending.empty()) {
      // One pass in priority order; starting a session never frees
      // capacity, so a single pass per instant is exhaustive.
      for (auto it = pending.begin(); it != pending.end();) {
        if (const auto c = first_available_candidate(*it, t)) {
          commit(*it, *c);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      if (pending.empty()) break;
      // Advance to the next session completion.
      const auto next = ends_.upper_bound(t);
      if (next == ends_.end()) {
        diagnose_stuck(pending.front(), t);
      }
      t = *next;
      ++time_advances_;
    }
  }

  std::optional<Candidate> first_available_candidate(int module_id, std::uint64_t t) {
    // Consider only pairs free *right now*: what makes this the paper's
    // greedy is that it never waits — a busy-but-faster interface that
    // frees moments later loses to a free-but-slower processor, which
    // is the anomaly the paper reports on p22810.  Among simultaneously
    // free pairs, PairOrder decides (nearest hops, the paper's locality
    // emphasis, or shortest session).  The cheap rejects (availability,
    // then the duration comparison against the running best) run before
    // any booking-state lookups, and the plan itself is a table read.
    std::optional<Candidate> best;
    int best_hops = 0;
    const bool fastest = sys_.params().pair_order == PairOrder::kFastestFirst;
    for (const PairChoice& pc : table_.pairs(module_id)) {
      ++probes_;
      if (resources_[pc.source].available_from > t) continue;
      if (pc.sink != pc.source && resources_[pc.sink].available_from > t) continue;
      if (best) {
        // The table is already nearest-first, so under kNearestFirst
        // the first feasible hit is final; under kFastestFirst keep
        // scanning for a shorter session.
        if (!fastest) break;
        if (pc.plan.duration > best->plan->duration) continue;
        if (pc.plan.duration == best->plan->duration && pc.hops >= best_hops) continue;
      }
      const Interval iv{t, t + pc.plan.duration};
      if (!resources_free(pc.source, pc.sink, iv)) continue;
      if (!paths_free(pc.plan, iv)) continue;
      if (!profile_.fits(iv, pc.plan.power, budget_.limit)) continue;
      best = Candidate{pc.source, pc.sink, t, &pc.plan};
      best_hops = pc.hops;
    }
    return best;
  }

  [[noreturn]] void diagnose_stuck(int module_id, std::uint64_t t) {
    const itc02::Module& m = sys_.soc().module(module_id);
    fail("planner stuck at t=", t, ": module ", module_id, " ('", m.name,
         "') cannot start any session — the power budget ", budget_.limit,
         " is too tight for the concurrent set, or no interface can reach the core");
  }

  // ----- ablation: earliest completion -----------------------------------

  void run_earliest_completion() {
    for (int module_id : order_) {
      std::optional<Candidate> best;
      for (const PairChoice& pc : table_.pairs(module_id)) {
        ++probes_;
        // Unenabled processors have available_from == kNever and are
        // skipped; processors appear earlier in the priority order, so
        // their availability is known by the time plain cores plan.
        if (resources_[pc.source].available_from == kNever) continue;
        if (pc.sink != pc.source && resources_[pc.sink].available_from == kNever) continue;
        if (pc.plan.power > budget_.limit) continue;
        const std::uint64_t start = earliest_feasible_start(pc.source, pc.sink, pc.plan);
        if (!best || start + pc.plan.duration < best->start + best->plan->duration) {
          best = Candidate{pc.source, pc.sink, start, &pc.plan};
        }
      }
      ensure(best.has_value(), "planner: no feasible interface pair for module ", module_id);
      commit(module_id, *best);
    }
  }

  std::uint64_t earliest_feasible_start(std::size_t s, std::size_t k,
                                        const SessionPlan& plan) const {
    const std::uint64_t dur = plan.duration;
    std::uint64_t t = std::max(resources_[s].available_from, resources_[k].available_from);
    // Fixed point over the three constraint classes.  Terminates: t is
    // nondecreasing and each constraint has finitely many busy windows.
    const bool circuit = sys_.params().channel_model == ChannelModel::kCircuit;
    for (;;) {
      const std::uint64_t before = t;
      t = resources_[s].busy.earliest_fit(t, dur);
      if (k != s) t = resources_[k].busy.earliest_fit(t, dur);
      if (circuit) {
        t = reservations_.earliest_path_fit(plan.path_in, t, dur);
        t = reservations_.earliest_path_fit(plan.path_out, t, dur);
      } else {
        // Bandwidth constraint: advance past load breakpoints until the
        // whole window fits on every channel.
        while (!channel_load_.fits(plan.path_in, {t, t + dur}, plan.bandwidth_in) ||
               !channel_load_.fits(plan.path_out, {t, t + dur}, plan.bandwidth_out)) {
          auto bump = channel_load_.next_change_after(plan.path_in, t);
          const auto bump_out = channel_load_.next_change_after(plan.path_out, t);
          if (!bump || (bump_out && *bump_out < *bump)) bump = bump_out;
          NOCSCHED_ASSERT(bump.has_value());  // loads end, so a fit exists
          t = *bump;
        }
      }
      if (!profile_.fits({t, t + dur}, plan.power, budget_.limit)) {
        const auto bump = profile_.next_change_after(t);
        NOCSCHED_ASSERT(bump.has_value());  // precheck guarantees the tail fits
        t = *bump;
        continue;
      }
      if (t == before) return t;
    }
  }

  // ----- wrap-up ----------------------------------------------------------

  Schedule finish() {
    Schedule out;
    std::sort(sessions_.begin(), sessions_.end(), [](const Session& a, const Session& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.module_id < b.module_id;
    });
    for (const Session& s : sessions_) out.makespan = std::max(out.makespan, s.end);
    out.sessions = std::move(sessions_);
    out.peak_power = profile_.peak();
    out.power_limit = budget_.limit;

    // Single flush per planner run: the hot loops above touch only the
    // plain tallies, so the disabled path costs one branch here.  The
    // Counter& caches are safe because the registry never destroys a
    // metric, only zeroes it on reset().
    obs::MetricsRegistry& reg = obs::registry();
    if (reg.enabled()) {
      static obs::Counter& runs = reg.counter("planner.runs");
      static obs::Counter& probes = reg.counter("planner.probes");
      static obs::Counter& prechecks = reg.counter("planner.prechecks");
      static obs::Counter& commits = reg.counter("planner.commits");
      static obs::Counter& advances = reg.counter("planner.time_advances");
      runs.inc();
      probes.add(probes_);
      prechecks.add(prechecks_);
      commits.add(commits_);
      advances.add(time_advances_);
    }
    return out;
  }

  const SystemModel& sys_;
  power::PowerBudget budget_;
  const PairTable& table_;
  std::vector<ResourceState> resources_;
  ChannelReservations reservations_;
  ChannelLoadTable channel_load_;
  power::PowerProfile profile_;
  std::vector<Session> sessions_;
  std::multiset<std::uint64_t> ends_;
  std::vector<int> order_;
  // Plain tallies, not registry counters: a planner run lives on one
  // thread, so the hot loops stay atomics-free and finish() flushes.
  std::uint64_t probes_ = 0;
  std::uint64_t prechecks_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t time_advances_ = 0;
};


}  // namespace

core::Schedule reference_plan(const core::SystemModel& sys, const power::PowerBudget& budget,
                              std::vector<int> order, const core::PairTable& pairs,
                              std::span<const int> pretested) {
  return Planner(sys, budget, std::move(order), pairs, pretested).run();
}

}  // namespace nocsched::oracle
