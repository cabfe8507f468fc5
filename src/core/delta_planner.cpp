#include "core/delta_planner.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace nocsched::core {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void DeltaPlanner::Trace::clear() {
  order.clear();
  commits.clear();
  passes.clear();
  makespan = 0;
  peak_power = 0.0;
}

DeltaPlanner::DeltaPlanner(const SystemModel& sys, const power::PowerBudget& budget,
                           const PairTable& table, std::vector<int> pretested)
    : sys_(sys),
      budget_(budget),
      table_(table),
      pretested_(std::move(pretested)),
      first_available_(sys.params().resource_choice == ResourceChoice::kFirstAvailable),
      fastest_(sys.params().pair_order == PairOrder::kFastestFirst),
      mask_filter_(sys.endpoints().size() <= 64) {
  const std::vector<Endpoint>& eps = sys_.endpoints();
  initial_.init(sys_);
  for (std::size_t r = 0; r < eps.size(); ++r) {
    if (!eps[r].is_processor()) continue;
    for (const int id : pretested_) {
      if (eps[r].processor_module == id) initial_.set_available_from(r, 0);
    }
  }

  proc_resource_.assign(sys_.soc().modules.size() + 1, PlannerState::npos);
  for (std::size_t r = 0; r < eps.size(); ++r) {
    if (eps[r].is_processor()) {
      proc_resource_[static_cast<std::size_t>(eps[r].processor_module)] = r;
    }
  }
  if (mask_filter_) {
    pair_masks_.resize(sys_.soc().modules.size() + 1);
    for (const itc02::Module& m : sys_.soc().modules) {
      std::vector<std::uint64_t>& masks = pair_masks_[static_cast<std::size_t>(m.id)];
      for (const PairChoice& pc : table_.pairs(m.id)) {
        masks.push_back((std::uint64_t{1} << pc.source) | (std::uint64_t{1} << pc.sink));
      }
    }
  }
}

void DeltaPlanner::precheck(const std::vector<int>& order) const {
  // Same feasibility precheck (and error) as the oracle planner.
  for (const int id : order) {
    const double cheapest = table_.cheapest_power(id);
    ensure(cheapest <= budget_.limit, "infeasible: module ", id, " ('",
           sys_.soc().module(id).name, "') needs at least ", cheapest,
           " power but the budget is ", budget_.limit);
  }
}

void DeltaPlanner::diagnose_stuck(int module_id, std::uint64_t t) const {
  const itc02::Module& m = sys_.soc().module(module_id);
  fail("planner stuck at t=", t, ": module ", module_id, " ('", m.name,
       "') cannot start any session — the power budget ", budget_.limit,
       " is too tight for the concurrent set, or no interface can reach the core");
}

void DeltaPlanner::apply_commit(const CommitRec& rec) {
  work_.commit_session(rec.source, rec.sink, Interval{rec.start, rec.end}, *rec.plan,
                       proc_resource_[static_cast<std::size_t>(rec.module_id)]);
}

void DeltaPlanner::materialize_work(std::size_t commit_count) {
  // The candidate's first `commit_count` commits equal the base's, so
  // replaying them onto the initial state reproduces the candidate's
  // state at the divergence point.
  work_ = initial_;
  for (std::size_t ci = 0; ci < commit_count; ++ci) apply_commit(base_.commits[ci]);
  stats_.replayed_commits += commit_count;
  work_materialized_ = true;
}

void DeltaPlanner::commit_live(std::uint32_t slot, int module_id, const Candidate& c) {
  const SessionPlan& plan = *c.plan;
  const Interval iv{c.start, c.start + plan.duration};
  work_.commit_session(c.source, c.sink, iv, plan,
                       proc_resource_[static_cast<std::size_t>(module_id)]);
  cand_.commits.push_back(CommitRec{slot, module_id, static_cast<std::uint32_t>(c.source),
                                    static_cast<std::uint32_t>(c.sink), iv.start, iv.end,
                                    c.plan});
  ++stats_.repriced_commits;
}

std::optional<DeltaPlanner::Candidate> DeltaPlanner::probe_first_available(int module_id,
                                                                          std::uint64_t t) {
  // Same feasible set, same tie-breaks, same floating-point compares as
  // the oracle's Planner::first_available_candidate — but through
  // PlannerState's first-available fast paths: every session starts at
  // or before `t` and is non-empty (plan_session enforces duration > 0),
  // so the endpoint and circuit-channel interval scans collapse to
  // scalar frontier compares and the load/power window maxima to the
  // level at `t`.  Each surviving reject happens for a pair the oracle would
  // reject too, so the selected candidate is identical.
  std::optional<Candidate> best;
  int best_hops = 0;
  const bool fastest = fastest_;
  for (const PairChoice& pc : table_.pairs(module_id)) {
    ++stats_.probes;
    if (!work_.pair_free_at(pc.source, pc.sink, t)) continue;
    if (best) {
      if (!fastest) break;
      if (pc.plan.duration > best->plan->duration) continue;
      if (pc.plan.duration == best->plan->duration && pc.hops >= best_hops) continue;
    }
    if (!work_.paths_free_at(pc.plan, t)) continue;
    if (!work_.power_fits_at(t, pc.plan.power, budget_.limit)) continue;
    best = Candidate{pc.source, pc.sink, t, &pc.plan};
    best_hops = pc.hops;
  }
  return best;
}

bool DeltaPlanner::module_maybe_startable(int module_id, std::uint64_t mask) const {
  // Sound reject only: a module none of whose pairs has both endpoints
  // free cannot pass any probe.  (Callers skip this when mask_filter_
  // is off.)
  for (const std::uint64_t m : pair_masks_[static_cast<std::size_t>(module_id)]) {
    if ((m & ~mask) == 0) return true;
  }
  return false;
}

void DeltaPlanner::run_first_available_live(std::uint64_t t, std::uint32_t resume_slot) {
  // Mirror of the oracle's Planner::run_first_available, except the
  // first pass may resume mid-way: pending positions below
  // `resume_slot` were already offered (and failed) in the current pass
  // before the divergence.
  bool resumed = true;
  std::uint64_t mask = work_.avail_mask(t);
  for (;;) {
    auto it = live_pending_.begin();
    if (resumed) {
      it = std::lower_bound(live_pending_.begin(), live_pending_.end(), resume_slot);
      resumed = false;
    }
    while (it != live_pending_.end()) {
      const std::uint32_t slot = *it;
      const int module_id = cand_.order[slot];
      // The per-pass mask screens whole modules before their pair loop
      // runs; commits only make endpoints busier within a pass (every
      // session has end > t), so the mask never wrongly rejects.
      if (mask_filter_ && !module_maybe_startable(module_id, mask)) {
        ++it;
        continue;
      }
      if (const auto c = probe_first_available(module_id, t)) {
        commit_live(slot, module_id, *c);
        mask &= ~((std::uint64_t{1} << c->source) | (std::uint64_t{1} << c->sink));
        it = live_pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (live_pending_.empty()) break;
    const auto next = work_.next_end_after(t);
    if (!next) diagnose_stuck(cand_.order[live_pending_.front()], t);
    t = *next;
    mask = work_.avail_mask(t);
    cand_.passes.push_back(
        PassRec{t, static_cast<std::uint32_t>(cand_.commits.size()), mask});
  }
}

std::uint64_t DeltaPlanner::earliest_feasible_start(const PairChoice& pc) const {
  // Mirror of the oracle's Planner::earliest_feasible_start.
  const SessionPlan& plan = pc.plan;
  const std::uint64_t dur = plan.duration;
  std::uint64_t t = std::max(work_.available_from(pc.source), work_.available_from(pc.sink));
  const bool circuit = sys_.params().channel_model == ChannelModel::kCircuit;
  for (;;) {
    const std::uint64_t before = t;
    t = work_.busy_earliest_fit(pc.source, t, dur);
    if (pc.sink != pc.source) t = work_.busy_earliest_fit(pc.sink, t, dur);
    if (circuit) {
      t = work_.circuit_earliest_path_fit(plan.path_in, t, dur);
      t = work_.circuit_earliest_path_fit(plan.path_out, t, dur);
    } else {
      while (!work_.paths_free(plan, Interval{t, t + dur})) {
        auto bump = work_.load_next_change_after(plan.path_in, t);
        const auto bump_out = work_.load_next_change_after(plan.path_out, t);
        if (!bump || (bump_out && *bump_out < *bump)) bump = bump_out;
        NOCSCHED_ASSERT(bump.has_value());  // loads end, so a fit exists
        t = *bump;
      }
    }
    if (!work_.power_fits(Interval{t, t + dur}, plan.power, budget_.limit)) {
      const auto bump = work_.power_next_change_after(t);
      NOCSCHED_ASSERT(bump.has_value());  // precheck guarantees the tail fits
      t = *bump;
      continue;
    }
    if (t == before) return t;
  }
}

void DeltaPlanner::run_earliest_completion_live(std::size_t first_slot) {
  // Mirror of the oracle's Planner::run_earliest_completion from
  // `first_slot` on.
  for (std::size_t slot = first_slot; slot < cand_.order.size(); ++slot) {
    const int module_id = cand_.order[slot];
    std::optional<Candidate> best;
    for (const PairChoice& pc : table_.pairs(module_id)) {
      ++stats_.probes;
      if (work_.available_from(pc.source) == kNever) continue;
      if (pc.sink != pc.source && work_.available_from(pc.sink) == kNever) continue;
      if (pc.plan.power > budget_.limit) continue;
      const std::uint64_t start = earliest_feasible_start(pc);
      if (!best || start + pc.plan.duration < best->start + best->plan->duration) {
        best = Candidate{pc.source, pc.sink, start, &pc.plan};
      }
    }
    ensure(best.has_value(), "planner: no feasible interface pair for module ", module_id);
    commit_live(static_cast<std::uint32_t>(slot), module_id, *best);
  }
}

std::uint64_t DeltaPlanner::finish_candidate() {
  cand_.makespan = work_.last_end();
  cand_.peak_power = work_.profile_peak();
  return cand_.makespan;
}

std::uint64_t DeltaPlanner::plan_full(const std::vector<int>& order) {
  precheck(order);
  ++stats_.full_plans;
  cand_.clear();
  cand_.order = order;
  work_ = initial_;
  work_materialized_ = true;
  live_pending_.clear();
  for (std::uint32_t slot = 0; slot < order.size(); ++slot) live_pending_.push_back(slot);
  if (!live_pending_.empty()) {
    if (first_available_) {
      cand_.passes.push_back(PassRec{0, 0, work_.avail_mask(0)});
      run_first_available_live(0, 0);
    } else {
      run_earliest_completion_live(0);
    }
  }
  finish_candidate();
  std::swap(base_, cand_);
  has_base_ = true;
  cand_valid_ = false;
  return base_.makespan;
}

std::uint64_t DeltaPlanner::evaluate(const std::vector<int>& order) {
  ensure(has_base_, "DeltaPlanner: evaluate before plan_full");
  NOCSCHED_ASSERT(order.size() == base_.order.size());
  changed_.clear();
  for (std::size_t s = 0; s < order.size(); ++s) {
    if (order[s] != base_.order[s]) changed_.push_back(static_cast<std::uint32_t>(s));
  }
  if (changed_.empty()) {
    ++stats_.noop_replans;
    cand_valid_ = false;
    return base_.makespan;
  }
  ++stats_.replans;
  cand_.clear();
  cand_.order = order;
  work_materialized_ = false;
  const std::uint64_t repriced_before = stats_.repriced_commits;
  const std::uint64_t makespan =
      first_available_ ? replan_first_available() : replan_earliest_completion();
  stats_.suffix_lengths.push_back(
      static_cast<std::uint32_t>(stats_.repriced_commits - repriced_before));
  cand_valid_ = true;
  return makespan;
}

std::uint64_t DeltaPlanner::replan_first_available() {
  const std::vector<CommitRec>& commits = base_.commits;
  const std::vector<PassRec>& passes = base_.passes;
  // Walk the base trace in execution order.  Commits at unchanged
  // positions are reused verbatim (the candidate's execution is in
  // lockstep with the base until a changed position acts); the walk
  // ends at the first possible divergence: a base commit sitting at a
  // changed position, or a changed position whose new module passes a
  // real feasibility probe.
  std::size_t k = 0;  // reused prefix commits (== cand_.commits.size())
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const std::uint64_t t = passes[p].t;
    std::uint64_t mask = passes[p].avail_mask;
    const std::size_t commit_end =
        p + 1 < passes.size() ? passes[p + 1].first_commit : commits.size();
    std::size_t ci = passes[p].first_commit;
    NOCSCHED_ASSERT(ci == k);
    std::size_t chi = 0;  // changed positions stay pending until divergence
    std::uint32_t diverge_slot = kNoSlot;
    while (ci < commit_end || chi < changed_.size()) {
      const std::uint32_t commit_slot = ci < commit_end ? commits[ci].slot : kNoSlot;
      const std::uint32_t changed_slot = chi < changed_.size() ? changed_[chi] : kNoSlot;
      if (commit_slot <= changed_slot) {
        if (commit_slot == changed_slot) {
          // The base commits a now-displaced module here — divergence.
          diverge_slot = commit_slot;
          break;
        }
        const CommitRec& rec = commits[ci];
        if (work_materialized_) apply_commit(rec);
        cand_.commits.push_back(rec);
        ++stats_.reused_commits;
        ++k;
        ++ci;
        // The commit occupies both endpoints past this pass (sessions
        // are never empty), so later offers in the pass see them busy.
        mask &= ~((std::uint64_t{1} << rec.source) | (std::uint64_t{1} << rec.sink));
      } else {
        // A changed position is offered here and the base did not
        // commit at it this pass.  If no pair of the new module has
        // both endpoints free, the probe fails exactly as the old
        // module's did — state-free.  Otherwise probe for real.
        const int module_id = cand_.order[changed_slot];
        if (!mask_filter_ || module_maybe_startable(module_id, mask)) {
          if (!work_materialized_) materialize_work(k);
          if (probe_first_available(module_id, t)) {
            // The new module starts here — an extra commit the base
            // does not have.  (The live pass re-probes it; the state is
            // unchanged, so the probe repeats identically.)
            diverge_slot = changed_slot;
            break;
          }
        }
        ++chi;
      }
    }
    if (diverge_slot == kNoSlot) continue;

    // Divergence in pass p at position diverge_slot with k reused
    // commits: keep the base's pass records through p (the prefix they
    // describe is shared), rebuild the working state, and plan the rest
    // live from the middle of this pass.
    cand_.passes.assign(passes.begin(), passes.begin() + static_cast<std::ptrdiff_t>(p) + 1);
    if (!work_materialized_) materialize_work(k);
    slot_committed_.assign(cand_.order.size(), 0);
    for (const CommitRec& rec : cand_.commits) slot_committed_[rec.slot] = 1;
    live_pending_.clear();
    for (std::uint32_t slot = 0; slot < cand_.order.size(); ++slot) {
      if (slot_committed_[slot] == 0) live_pending_.push_back(slot);
    }
    run_first_available_live(t, diverge_slot);
    return finish_candidate();
  }
  // Unreachable: every changed position holds a base commit in some
  // pass, and reaching it diverges.
  NOCSCHED_ASSERT(false);
  return base_.makespan;
}

std::uint64_t DeltaPlanner::replan_earliest_completion() {
  // Earliest-completion commits positionally, so the plan is unchanged
  // up to the first changed position and live from there.
  const std::size_t d = changed_.front();
  for (std::size_t ci = 0; ci < d; ++ci) {
    cand_.commits.push_back(base_.commits[ci]);
    ++stats_.reused_commits;
  }
  materialize_work(d);
  run_earliest_completion_live(d);
  return finish_candidate();
}

void DeltaPlanner::adopt() {
  if (!cand_valid_) return;
  std::swap(base_, cand_);
  cand_valid_ = false;
  ++stats_.adoptions;
}

Schedule DeltaPlanner::materialize() const {
  ensure(has_base_, "DeltaPlanner: materialize before plan_full");
  Schedule out;
  out.sessions.reserve(base_.commits.size());
  for (const CommitRec& rec : base_.commits) {
    Session s;
    s.module_id = rec.module_id;
    s.source_resource = static_cast<int>(rec.source);
    s.sink_resource = static_cast<int>(rec.sink);
    s.start = rec.start;
    s.end = rec.end;
    s.power = rec.plan->power;
    s.path_in = rec.plan->path_in;
    s.path_out = rec.plan->path_out;
    s.bandwidth_in = rec.plan->bandwidth_in;
    s.bandwidth_out = rec.plan->bandwidth_out;
    out.sessions.push_back(std::move(s));
  }
  std::sort(out.sessions.begin(), out.sessions.end(), [](const Session& a, const Session& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.module_id < b.module_id;
  });
  out.makespan = base_.makespan;
  out.peak_power = base_.peak_power;
  out.power_limit = budget_.limit;
  return out;
}

}  // namespace nocsched::core
