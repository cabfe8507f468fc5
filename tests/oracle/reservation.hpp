#pragma once
// Time-interval reservation of directed NoC channels — the circuit
// channel table of the reference planner (reference_planner.hpp).
//
// The planner circuit-reserves both XY paths of a test session (source
// to core, core to sink) for the session's whole duration — the
// conservative approximation standard in NoC test-access scheduling.
// Two concurrent sessions may never hold the same directed channel at
// the same time; this table enforces that and answers feasibility
// queries.

#include <span>

#include "common/interval_set.hpp"
#include "noc/mesh.hpp"

namespace nocsched::oracle {

class ChannelReservations {
 public:
  explicit ChannelReservations(const noc::Mesh& mesh);

  /// True if every channel in `path` is free throughout `iv`.
  [[nodiscard]] bool path_free(std::span<const noc::ChannelId> path, const Interval& iv) const;

  /// Reserve every channel in `path` for `iv`; throws on conflict.
  void reserve(std::span<const noc::ChannelId> path, const Interval& iv);

  /// Earliest time >= `from` at which the whole path is free for `len`
  /// consecutive cycles.  (Iterates to a fixed point across channels.)
  [[nodiscard]] std::uint64_t earliest_path_fit(std::span<const noc::ChannelId> path,
                                                std::uint64_t from, std::uint64_t len) const;

  /// Reservation history of one channel.
  [[nodiscard]] const IntervalSet& channel(noc::ChannelId c) const;

  [[nodiscard]] std::size_t channel_count() const { return tables_.size(); }

  void clear();

 private:
  std::vector<IntervalSet> tables_;
};

}  // namespace nocsched::oracle
