#pragma once
// Copyable planner state for delta evaluation.
//
// The reference greedy planner (tests/oracle/reference_planner.cpp)
// keeps its booking state (resource busy windows, channel reservations
// or loads, the power envelope, per-processor availability frontiers)
// in std::map-backed structures rebuilt on every run.  The planning
// kernel needs that state as an explicit *value*: cheap to copy, and
// bit-identical in every feasibility answer to the structures the
// oracle consults.
//
// Layout is structure-of-arrays: one flat vector per concern, indexed
// by endpoint or channel id, instead of an array of per-resource
// structs.  Resetting the kernel's working state to the initial state
// before a replan's prefix replay is then a handful of vector
// assignments that reuse the destination's capacity — no node churn.
// The power envelopes use StepProfile, a flat sorted-array replica of
// power::PowerProfile whose query results (including every
// floating-point comparison) are bit-identical to the std::map walk.
//
// PlannerState is a D4 shared type: outside this file it may only be
// taken by const reference (or && sink) — all mutation goes through the
// member functions below.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/interval_set.hpp"
#include "core/session_model.hpp"
#include "core/system_model.hpp"

namespace nocsched::core {

/// Flat replica of power::PowerProfile: `times_` holds the sorted
/// breakpoints, `deltas_` the summed step at each breakpoint (summed in
/// insertion order, exactly as the map's `deltas_[t] += v`), `levels_`
/// the running level after each breakpoint (the same left-to-right
/// fold the map walk performs, so every double is bit-identical).
/// Queries binary-search instead of walking the whole map.
class StepProfile {
 public:
  /// Mirrors PowerProfile::add, including the argument check.
  void add(const Interval& iv, double value);

  /// Mirrors PowerProfile::fits bit-for-bit (same slack, same fold).
  [[nodiscard]] bool fits(const Interval& iv, double value, double limit) const;

  /// Mirrors PowerProfile::max_in.
  [[nodiscard]] double max_in(const Interval& iv) const;

  /// fits({t, t + dur}, value, limit) under the first-available
  /// invariant that every recorded interval starts at or before `t`:
  /// all breakpoints after `t` are session ends, the level is
  /// non-increasing past `t`, and max_in collapses to the level at `t`
  /// — the identical double, one binary search instead of a range max.
  [[nodiscard]] bool fits_at(std::uint64_t t, double value, double limit) const;

  /// Mirrors PowerProfile::peak.
  [[nodiscard]] double peak() const;

  /// Mirrors PowerProfile::next_change_after.
  [[nodiscard]] std::optional<std::uint64_t> next_change_after(std::uint64_t t) const;

  void clear();

 private:
  void add_delta(std::uint64_t t, double v);

  std::vector<std::uint64_t> times_;  // sorted, unique
  std::vector<double> deltas_;
  std::vector<double> levels_;
};

/// The planner's mutable scheduling state as a copyable value.
/// Indices follow SystemModel::endpoints() (0 = ATE in, 1 = ATE out,
/// then processors ascending) and the mesh's channel ids.
class PlannerState {
 public:
  PlannerState() = default;

  /// Size the per-endpoint and per-channel arrays for `sys` and reset
  /// everything to the planner's initial state (processors unavailable,
  /// ATE ports free from 0).  Only the channel structure matching
  /// `sys.params().channel_model` is allocated.
  void init(const SystemModel& sys);

  /// Earliest instant endpoint `r` may serve a session (kNever until a
  /// processor's own test is committed).
  [[nodiscard]] std::uint64_t available_from(std::size_t r) const {
    return available_from_[r];
  }

  /// Mark endpoint `r` available from `t` (pretested processors).
  void set_available_from(std::size_t r, std::uint64_t t) {
    available_from_[r] = t;
    free_from_[r] = t;
  }

  /// Mirrors the oracle's Planner::resources_free.
  [[nodiscard]] bool resources_free(std::size_t s, std::size_t k, const Interval& iv) const;

  /// Mirrors the oracle's Planner::paths_free for the configured channel model.
  [[nodiscard]] bool paths_free(const SessionPlan& plan, const Interval& iv) const;

  // --- First-available fast paths -----------------------------------------
  //
  // In first-available mode every committed session starts at or before
  // the current pass time `t` and sessions are never empty, so "free
  // throughout [t, t + dur)" degenerates: a resource or circuit channel
  // conflicts iff it is still busy at `t` (one scalar compare against a
  // maintained free-from frontier), and a load or power profile's max
  // over the window is its level at `t` (levels only fall after `t`).
  // Each *_at query returns the identical answer — down to the same
  // floating-point comparison — as its general counterpart on the
  // interval {t, t + dur}.  They are only valid under that invariant;
  // earliest-completion probing must use the general forms.

  /// resources_free(s, k, {t, t + dur}) for any dur > 0, plus the
  /// availability reject (available_from <= t) folded in.
  [[nodiscard]] bool pair_free_at(std::size_t s, std::size_t k, std::uint64_t t) const {
    return free_from_[s] <= t && (k == s || free_from_[k] <= t);
  }

  /// paths_free(plan, {t, t + dur}) for any dur > 0.
  [[nodiscard]] bool paths_free_at(const SessionPlan& plan, std::uint64_t t) const;

  /// power_fits({t, t + dur}, value, limit) for any dur > 0.
  [[nodiscard]] bool power_fits_at(std::uint64_t t, double value, double limit) const {
    return profile_.fits_at(t, value, limit);
  }

  /// Mirrors profile_.fits(iv, value, limit).
  [[nodiscard]] bool power_fits(const Interval& iv, double value, double limit) const {
    return profile_.fits(iv, value, limit);
  }

  [[nodiscard]] double profile_peak() const { return profile_.peak(); }

  [[nodiscard]] std::optional<std::uint64_t> power_next_change_after(std::uint64_t t) const {
    return profile_.next_change_after(t);
  }

  /// Mirrors ends_.upper_bound(t): the first session end strictly after
  /// `t`, or nullopt when no session ends later.
  [[nodiscard]] std::optional<std::uint64_t> next_end_after(std::uint64_t t) const;

  /// Latest session end so far (the makespan once planning completes);
  /// 0 with no commits.
  [[nodiscard]] std::uint64_t last_end() const { return ends_.empty() ? 0 : ends_.back(); }

  /// Mirrors busy.earliest_fit on endpoint `r`.
  [[nodiscard]] std::uint64_t busy_earliest_fit(std::size_t r, std::uint64_t from,
                                                std::uint64_t len) const {
    return busy_[r].earliest_fit(from, len);
  }

  /// Mirrors the oracle's circuit-channel earliest_path_fit (kCircuit
  /// only; tests/oracle/reservation.hpp).
  [[nodiscard]] std::uint64_t circuit_earliest_path_fit(std::span<const noc::ChannelId> path,
                                                        std::uint64_t from,
                                                        std::uint64_t len) const;

  /// Mirrors the oracle's channel-load next_change_after (kMultiplexed
  /// only).
  [[nodiscard]] std::optional<std::uint64_t> load_next_change_after(
      std::span<const noc::ChannelId> path, std::uint64_t t) const;

  /// Bitset of endpoints genuinely free at `t` — available_from <= t
  /// AND not mid-session (bit r = endpoint r).  Only meaningful when
  /// endpoints() fits in 64 bits — the delta planner disables mask
  /// filtering otherwise.
  [[nodiscard]] std::uint64_t avail_mask(std::uint64_t t) const;

  /// Mirrors the oracle's Planner::commit minus the Session materialization:
  /// books both endpoints, both paths, the power slice, the end event,
  /// and — when `proc_resource` is not npos — the tested module's own
  /// processor endpoint becoming available at iv.end.
  void commit_session(std::size_t source, std::size_t sink, const Interval& iv,
                      const SessionPlan& plan, std::size_t proc_resource);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  bool circuit_ = false;
  std::vector<std::uint64_t> available_from_;  // per endpoint
  /// max(available_from, end of the endpoint's latest session) — the
  /// scalar frontier behind the first-available fast paths.  Queries
  /// against it are only exact for monotonically non-decreasing `t`
  /// (first-available time), which commit_session relies on.
  std::vector<std::uint64_t> free_from_;       // per endpoint
  std::vector<IntervalSet> busy_;              // per endpoint
  std::vector<IntervalSet> channel_busy_;      // per channel (kCircuit)
  std::vector<std::uint64_t> channel_free_from_;  // per channel (kCircuit)
  std::vector<StepProfile> channel_load_;      // per channel (kMultiplexed)
  StepProfile profile_;                        // summed power envelope
  std::vector<std::uint64_t> ends_;            // sorted session ends (multiset semantics)
};

}  // namespace nocsched::core
