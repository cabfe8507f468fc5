#include "oracle/reservation.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "noc/routing.hpp"

namespace nocsched::oracle {
namespace {

using noc::ChannelId;
using noc::Mesh;
using noc::RouterId;
using noc::xy_route;

TEST(ChannelReservations, FreshTableIsFree) {
  const Mesh m(4, 4);
  const ChannelReservations res(m);
  EXPECT_EQ(res.channel_count(), static_cast<std::size_t>(m.channel_count()));
  const auto path = xy_route(m, 0, 15);
  EXPECT_TRUE(res.path_free(path, {0, 1000}));
}

TEST(ChannelReservations, ReserveBlocksOverlaps) {
  const Mesh m(4, 4);
  ChannelReservations res(m);
  const auto path = xy_route(m, m.router_at(0, 0), m.router_at(3, 0));
  res.reserve(path, {100, 200});
  EXPECT_FALSE(res.path_free(path, {150, 160}));
  EXPECT_TRUE(res.path_free(path, {200, 300}));
  EXPECT_TRUE(res.path_free(path, {0, 100}));
}

TEST(ChannelReservations, DisjointPathsDoNotInterfere) {
  const Mesh m(4, 4);
  ChannelReservations res(m);
  const auto row0 = xy_route(m, m.router_at(0, 0), m.router_at(3, 0));
  const auto row3 = xy_route(m, m.router_at(0, 3), m.router_at(3, 3));
  res.reserve(row0, {0, 1000});
  EXPECT_TRUE(res.path_free(row3, {0, 1000}));
}

TEST(ChannelReservations, SharedChannelConflicts) {
  const Mesh m(4, 4);
  ChannelReservations res(m);
  // Both routes traverse the channel (1,0)->(2,0).
  const auto a = xy_route(m, m.router_at(0, 0), m.router_at(3, 0));
  const auto b = xy_route(m, m.router_at(1, 0), m.router_at(2, 1));
  res.reserve(a, {0, 100});
  EXPECT_FALSE(res.path_free(b, {50, 150}));
  EXPECT_TRUE(res.path_free(b, {100, 150}));
}

TEST(ChannelReservations, OppositeDirectionsAreIndependent) {
  const Mesh m(4, 4);
  ChannelReservations res(m);
  const auto east = xy_route(m, m.router_at(0, 0), m.router_at(3, 0));
  const auto west = xy_route(m, m.router_at(3, 0), m.router_at(0, 0));
  res.reserve(east, {0, 100});
  EXPECT_TRUE(res.path_free(west, {0, 100}));
}

TEST(ChannelReservations, ConflictingReserveThrows) {
  const Mesh m(4, 4);
  ChannelReservations res(m);
  const auto path = xy_route(m, 0, 3);
  res.reserve(path, {0, 100});
  EXPECT_THROW(res.reserve(path, {50, 60}), Error);
}

TEST(ChannelReservations, EmptyPathAlwaysFree) {
  const Mesh m(4, 4);
  ChannelReservations res(m);
  const std::vector<ChannelId> empty;
  EXPECT_TRUE(res.path_free(empty, {0, UINT64_MAX}));
  EXPECT_NO_THROW(res.reserve(empty, {0, 10}));
}

TEST(ChannelReservations, EarliestPathFitSkipsBusyWindows) {
  const Mesh m(4, 4);
  ChannelReservations res(m);
  const auto path = xy_route(m, 0, 3);
  res.reserve(path, {100, 200});
  EXPECT_EQ(res.earliest_path_fit(path, 0, 100), 0u);
  EXPECT_EQ(res.earliest_path_fit(path, 0, 101), 200u);
  EXPECT_EQ(res.earliest_path_fit(path, 150, 10), 200u);
}

TEST(ChannelReservations, EarliestPathFitCrossChannelFixedPoint) {
  const Mesh m(4, 1);
  ChannelReservations res(m);
  // Stagger reservations on the two channels of the path so the fit
  // must iterate: channel A busy [0,50), channel B busy [40,90).
  const auto full = xy_route(m, 0, 2);
  ASSERT_EQ(full.size(), 2u);
  res.reserve(std::vector<ChannelId>{full[0]}, {0, 50});
  res.reserve(std::vector<ChannelId>{full[1]}, {40, 90});
  EXPECT_EQ(res.earliest_path_fit(full, 0, 20), 90u);
}

TEST(ChannelReservations, ClearFreesEverything) {
  const Mesh m(4, 4);
  ChannelReservations res(m);
  const auto path = xy_route(m, 0, 15);
  res.reserve(path, {0, 1000});
  res.clear();
  EXPECT_TRUE(res.path_free(path, {0, 1000}));
}

TEST(ChannelReservations, BadChannelIdThrows) {
  const Mesh m(2, 2);
  const ChannelReservations res(m);
  EXPECT_THROW((void)res.channel(-1), Error);
  EXPECT_THROW((void)res.channel(1000), Error);
}

/// Brute-force oracle: scan every start cycle from `from` until the
/// whole path is free for `len` consecutive cycles.  O(horizon), only
/// viable for the small horizons the property test uses.
std::uint64_t brute_force_path_fit(const ChannelReservations& res,
                                   std::span<const ChannelId> path, std::uint64_t from,
                                   std::uint64_t len) {
  for (std::uint64_t t = from;; ++t) {
    if (res.path_free(path, {t, t + len})) return t;
  }
}

TEST(ChannelReservationsProperty, EarliestPathFitMatchesBruteForce) {
  // The multi-channel fixed-point loop, cross-examined on random
  // reservation patterns: staggered, adjacent, nested, and overlapping
  // windows across paths of 1..6 channels (with random starts and
  // lengths, including len == 0 and queries inside busy windows).
  Rng rng(0xF17);
  for (int trial = 0; trial < 300; ++trial) {
    const Mesh m(4, 4);
    ChannelReservations res(m);
    constexpr std::uint64_t kHorizon = 160;
    // Random busy windows, channel by channel (reserve() forbids
    // overlap per channel, so windows are drawn disjoint per channel).
    for (ChannelId c = 0; c < m.channel_count(); ++c) {
      std::uint64_t t = rng.below(20);
      while (t < kHorizon && rng.chance(0.7)) {
        const std::uint64_t busy = 1 + rng.below(25);
        res.reserve(std::vector<ChannelId>{c}, {t, t + busy});
        t += busy + rng.below(20);
      }
    }
    for (int query = 0; query < 20; ++query) {
      // A random walk makes a realistic path (adjacent channels); the
      // fit must also hold for arbitrary channel subsets, so mix both.
      std::vector<ChannelId> path;
      if (rng.chance(0.5)) {
        RouterId a = static_cast<RouterId>(rng.below(m.router_count()));
        RouterId b = static_cast<RouterId>(rng.below(m.router_count()));
        path = xy_route(m, a, b);
        if (path.empty()) continue;
      } else {
        const std::uint64_t hops = 1 + rng.below(6);
        for (std::uint64_t h = 0; h < hops; ++h) {
          path.push_back(static_cast<ChannelId>(rng.below(m.channel_count())));
        }
      }
      const std::uint64_t from = rng.below(kHorizon);
      const std::uint64_t len = rng.below(40);
      const std::uint64_t got = res.earliest_path_fit(path, from, len);
      const std::uint64_t want = brute_force_path_fit(res, path, from, len);
      ASSERT_EQ(got, want) << "trial " << trial << " from=" << from << " len=" << len;
      // And the answer must actually fit.
      EXPECT_TRUE(res.path_free(path, {got, got + len}));
    }
  }
}

}  // namespace
}  // namespace nocsched::oracle
