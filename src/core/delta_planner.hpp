#pragma once
// Delta-evaluation planning kernel: suffix re-pricing over a commit
// trace.
//
// Every plan in the library runs through this kernel: the
// core::plan_tests* entry points plan an order from scratch with a
// fresh DeltaPlanner (plan_full + materialize), and the search
// strategies, which mutate an order locally (a within-tier swap, a
// shuffle) and re-price it, keep one per chain.  DeltaPlanner keeps the
// *trace* of the incumbent order's plan — every commit in execution
// order and the time-advance passes — and re-prices a perturbed order
// from the first point where its execution can diverge from the
// incumbent's.  The working PlannerState at that point is rebuilt by
// replaying the shared prefix commits onto the initial state.  There
// are no intermediate snapshots: a search replan typically re-prices
// most of its commits, so it diverges before a snapshot would pay off.
//
// For ResourceChoice::kEarliestCompletion the planner commits orders
// positionally, so the divergence point is simply the first changed
// position.  For the paper's kFirstAvailable greedy, execution is
// event-driven (every pending module is offered at every time step), so
// the kernel walks the incumbent trace pass by pass: commits at
// unchanged positions are reused verbatim; a changed position is
// screened against the pass's endpoint-availability bitmask (a module
// none of whose (source, sink) pairs is available cannot start — the
// exact cheap reject the oracle's probe performs first) and only
// filter-passing probes materialize state; the first real difference
// (a reused commit displaced by a changed position, or a changed
// position that actually starts) switches to live planning mid-pass.
//
// The re-priced plan is bit-identical to a from-scratch plan of the same
// order by the reference planner in tests/oracle/ — same commits, same
// floating-point comparisons, same Schedule — which
// tests/search/delta_eval_property_test.cpp asserts for random systems
// and swap sequences (and tests/oracle/equivalence_test.cpp for every
// plan_tests* entry point).  evaluate() prices a candidate without
// disturbing the incumbent; adopt() promotes the last candidate
// (accepted move) so later moves diff against it.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/pair_table.hpp"
#include "core/planner_state.hpp"
#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "power/budget.hpp"

namespace nocsched::core {

/// Work tallies of one DeltaPlanner, for obs `delta.*` metrics and the
/// delta_eval bench.  Plain counters: one planner lives on one thread.
struct DeltaStats {
  std::uint64_t full_plans = 0;      ///< plan_full calls
  std::uint64_t replans = 0;         ///< evaluate calls with a real diff
  std::uint64_t noop_replans = 0;    ///< evaluate of an order identical to the base
  std::uint64_t adoptions = 0;       ///< adopt() calls that promoted a candidate
  std::uint64_t reused_commits = 0;  ///< incumbent commits reused without re-pricing
  /// Shared-prefix commits replayed onto the initial state to rebuild
  /// the working state at a replan's divergence point.
  std::uint64_t replayed_commits = 0;
  std::uint64_t repriced_commits = 0;  ///< commits actually re-priced live
  std::uint64_t probes = 0;            ///< pair feasibility probes on the live path
  /// Re-priced commits of each replan, in call order (suffix-length
  /// histogram input; bounded by the evaluation budget).
  std::vector<std::uint32_t> suffix_lengths;
};

class DeltaPlanner {
 public:
  /// `table` (and `sys`) must outlive the planner; `pretested` follows
  /// plan_tests_subset semantics.
  DeltaPlanner(const SystemModel& sys, const power::PowerBudget& budget,
               const PairTable& table, std::vector<int> pretested);

  /// Plan `order` from scratch, record it as the incumbent base, and
  /// return its makespan.  Mirrors the oracle planner including its
  /// feasibility precheck (throws the identical error on an infeasible
  /// module).  Orders are not re-validated here: callers pass orders
  /// already shaped like EvalContext's (a permutation, or a valid
  /// subset with `pretested`).
  std::uint64_t plan_full(const std::vector<int>& order);

  /// Price `order` (same positions as the base order) by reusing the
  /// base plan's prefix and re-pricing only from the first possible
  /// divergence.  Returns the makespan; the base is left untouched and
  /// the result is kept as the candidate for adopt().
  std::uint64_t evaluate(const std::vector<int>& order);

  /// Promote the last evaluate() candidate to the incumbent base (call
  /// on an accepted move).  No-op when the last evaluate was a no-op
  /// diff or a candidate was never priced.
  void adopt();

  [[nodiscard]] bool has_base() const { return has_base_; }
  [[nodiscard]] const std::vector<int>& base_order() const { return base_.order; }
  [[nodiscard]] std::uint64_t base_makespan() const { return base_.makespan; }
  /// Time advances of the base plan's first-available passes (0 under
  /// earliest completion, which never advances a pass clock).
  [[nodiscard]] std::uint64_t base_time_advances() const {
    return base_.passes.empty() ? 0 : base_.passes.size() - 1;
  }

  /// The incumbent base plan as a full Schedule, bit-identical to the
  /// oracle planner's Schedule for the same order.
  [[nodiscard]] Schedule materialize() const;

  [[nodiscard]] const DeltaStats& stats() const { return stats_; }

 private:
  /// One committed session of a traced plan, in execution order.
  struct CommitRec {
    std::uint32_t slot = 0;  ///< order position
    int module_id = 0;
    std::uint32_t source = 0;
    std::uint32_t sink = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    const SessionPlan* plan = nullptr;  ///< into table_
  };

  /// One first-available pass (time step) of a traced plan.
  struct PassRec {
    std::uint64_t t = 0;
    std::uint32_t first_commit = 0;  ///< index into commits at pass start
    std::uint64_t avail_mask = 0;    ///< endpoints available at pass start
  };

  struct Trace {
    std::vector<int> order;
    std::vector<CommitRec> commits;
    std::vector<PassRec> passes;  ///< kFirstAvailable only
    std::uint64_t makespan = 0;
    double peak_power = 0.0;
    void clear();
  };

  struct Candidate {
    std::size_t source = 0;
    std::size_t sink = 0;
    std::uint64_t start = 0;
    const SessionPlan* plan = nullptr;
  };

  void precheck(const std::vector<int>& order) const;
  [[noreturn]] void diagnose_stuck(int module_id, std::uint64_t t) const;

  /// Rebuild work_ as the state after the first `commit_count` base
  /// commits: copy initial_, then replay those commits.
  void materialize_work(std::size_t commit_count);
  void apply_commit(const CommitRec& rec);
  void commit_live(std::uint32_t slot, int module_id, const Candidate& c);
  [[nodiscard]] std::optional<Candidate> probe_first_available(int module_id, std::uint64_t t);
  /// True unless no pair of `module_id` has both endpoint bits set in
  /// `mask` — the state-free screen run before a real probe.
  [[nodiscard]] bool module_maybe_startable(int module_id, std::uint64_t mask) const;
  /// Live first-available planning over live_pending_ starting at pass
  /// time `t`; `resume_slot` skips pending positions already offered in
  /// the (resumed) current pass.
  void run_first_available_live(std::uint64_t t, std::uint32_t resume_slot);

  [[nodiscard]] std::uint64_t earliest_feasible_start(const PairChoice& pc) const;
  void run_earliest_completion_live(std::size_t first_slot);

  std::uint64_t replan_first_available();
  std::uint64_t replan_earliest_completion();
  std::uint64_t finish_candidate();

  const SystemModel& sys_;
  power::PowerBudget budget_;
  const PairTable& table_;
  std::vector<int> pretested_;
  bool first_available_;
  bool fastest_;
  bool mask_filter_;  ///< endpoint count fits the 64-bit availability mask

  /// Module id -> its own processor endpoint index (npos for plain
  /// cores): the commit-time availability update.
  std::vector<std::size_t> proc_resource_;
  /// Module id -> per-pair endpoint masks (bit source | bit sink), for
  /// the pass-availability filter.  Empty when !mask_filter_.
  std::vector<std::vector<std::uint64_t>> pair_masks_;

  PlannerState initial_;  ///< empty schedule, pretested processors available
  Trace base_;
  Trace cand_;
  bool has_base_ = false;
  bool cand_valid_ = false;
  bool work_materialized_ = false;
  PlannerState work_;

  // Per-replan scratch, persistent for allocation reuse.
  std::vector<std::uint32_t> changed_;
  std::vector<std::uint32_t> live_pending_;
  std::vector<char> slot_committed_;

  DeltaStats stats_;
};

}  // namespace nocsched::core
