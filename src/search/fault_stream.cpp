#include "search/fault_stream.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/line_scanner.hpp"
#include "common/narrow.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace nocsched::search {

noc::FaultSet FaultStream::cumulative(std::size_t upto) const {
  ensure(upto <= events.size(), "FaultStream::cumulative: prefix ", upto, " of ",
         events.size(), " events");
  noc::FaultSet faults;
  for (std::size_t i = 0; i < upto; ++i) merge_faults(faults, events[i].increment);
  return faults;
}

void merge_faults(noc::FaultSet& faults, const noc::FaultSet& increment) {
  for (const noc::ChannelId c : increment.failed_channels()) faults.fail_channel(c);
  for (const noc::RouterId r : increment.failed_routers()) faults.fail_router(r);
  for (const int p : increment.failed_processors()) faults.fail_processor(p);
}

namespace {

/// "FROM:TO" -> the directed channel between two adjacent routers.
noc::ChannelId parse_link(LineScanner& sc, std::string_view spec,
                          const core::SystemModel& sys) {
  const auto ends = split(spec, ':');
  if (ends.size() != 2) sc.die("links entries are FROM:TO router pairs, got '", spec, "'");
  noc::RouterId routers[2];
  for (int i = 0; i < 2; ++i) {
    std::uint64_t r = 0;
    for (const char c : ends[i]) {
      if (c < '0' || c > '9') sc.die("bad router id '", ends[i], "' in link '", spec, "'");
      r = r * 10 + static_cast<std::uint64_t>(c - '0');
      if (r > static_cast<std::uint64_t>(sys.mesh().router_count())) break;
    }
    if (ends[i].empty() || r >= static_cast<std::uint64_t>(sys.mesh().router_count())) {
      sc.die("no router '", ends[i], "' in link '", spec, "' (mesh has ",
             sys.mesh().router_count(), " routers)");
    }
    routers[i] = checked_narrow<noc::RouterId>(r);
  }
  if (sys.mesh().hop_count(routers[0], routers[1]) != 1) {
    sc.die("link '", spec, "': routers ", routers[0], " and ", routers[1],
           " are not adjacent");
  }
  return sys.mesh().channel_between(routers[0], routers[1]);
}

FaultEvent parse_event(std::string_view text, const core::SystemModel& sys,
                       std::string_view name, std::size_t line) {
  LineScanner sc(text, name, line);
  FaultEvent event;
  bool saw_cycle = false;
  sc.object("the event object", "a key", [&](std::string_view key) {
    if (key == "cycle") {
      saw_cycle = true;
      event.cycle = sc.parse_uint("\"cycle\"");
      if (event.cycle > kMaxEventCycle) {
        sc.die("\"cycle\" ", event.cycle, " exceeds the maximum ", kMaxEventCycle);
      }
    } else if (key == "links") {
      sc.array("\"links\"", [&] {
        event.increment.fail_channel(parse_link(sc, sc.parse_string("a link"), sys));
      });
    } else if (key == "routers") {
      sc.array("\"routers\"", [&] {
        const std::uint64_t r = sc.parse_uint("a router id");
        if (r >= static_cast<std::uint64_t>(sys.mesh().router_count())) {
          sc.die("no router ", r, " (mesh has ", sys.mesh().router_count(), " routers)");
        }
        event.increment.fail_router(checked_narrow<noc::RouterId>(r));
      });
    } else if (key == "procs") {
      sc.array("\"procs\"", [&] {
        const std::uint64_t raw = sc.parse_uint("a processor module id");
        if (raw < 1 || raw > sys.soc().modules.size()) sc.die("no module ", raw);
        const int id = checked_narrow<int>(raw);
        if (!sys.soc().module(id).is_processor) {
          sc.die("module ", id, " ('", sys.soc().module(id).name, "') is not a processor");
        }
        event.increment.fail_processor(id);
      });
    } else {
      sc.die("unknown key \"", key, "\" (expected cycle|links|routers|procs)");
    }
  });
  sc.expect_end("the event object");
  if (!saw_cycle) sc.die("event has no \"cycle\"");
  if (event.increment.empty()) {
    sc.die("event breaks nothing (need at least one link, router, or proc)");
  }
  return event;
}

}  // namespace

FaultStream parse_fault_stream(std::istream& in, const core::SystemModel& sys,
                               std::string_view name) {
  FaultStream stream;
  std::string raw;
  std::size_t line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::string_view text = trim(raw);
    if (text.empty()) continue;
    FaultEvent event = parse_event(text, sys, name, line);
    if (!stream.events.empty() && event.cycle <= stream.events.back().cycle) {
      fail(name, ":", line, ": event cycle ", event.cycle,
           " is not after the previous event's cycle ", stream.events.back().cycle,
           " (events must be strictly increasing in time)");
    }
    stream.events.push_back(std::move(event));
  }
  ensure(!stream.events.empty(), name, ": fault stream has no events");
  return stream;
}

FaultStream load_fault_stream(const std::string& path, const core::SystemModel& sys) {
  std::ifstream in(path);
  ensure(in.good(), "cannot open fault stream file '", path, "'");
  return parse_fault_stream(in, sys, path);
}

FaultStream random_fault_stream(const core::SystemModel& sys, std::size_t k,
                                std::uint64_t seed, std::uint64_t horizon) {
  ensure(k > 0, "random_fault_stream: need at least one event");
  std::vector<int> procs;
  for (const itc02::Module& m : sys.soc().modules) {
    if (m.is_processor) procs.push_back(m.id);
  }
  ensure(sys.mesh().channel_count() > 0 || !procs.empty(),
         "random_fault_stream: system has nothing to break");

  Rng rng = stream_rng(seed, 0x57F3A);
  // k distinct injection cycles in [1, max(horizon, k)] — horizon is
  // typically the pristine makespan, so events land mid-execution.
  const std::uint64_t span = std::max<std::uint64_t>(horizon, k);
  std::set<std::uint64_t> cycles;
  while (cycles.size() < k) cycles.insert(1 + rng.below(span));

  // True when `inc` breaks silicon `cum` has not broken yet.
  auto adds_new = [](const noc::FaultSet& cum, const noc::FaultSet& inc) {
    for (const noc::ChannelId c : inc.failed_channels()) {
      if (!cum.channel_failed(c)) return true;
    }
    for (const noc::RouterId r : inc.failed_routers()) {
      if (!cum.router_failed(r)) return true;
    }
    for (const int p : inc.failed_processors()) {
      if (!cum.processor_failed(p)) return true;
    }
    return false;
  };

  FaultStream stream;
  noc::FaultSet cumulative;
  for (const std::uint64_t cycle : cycles) {
    noc::FaultSet increment = noc::random_fault_scenario(sys.mesh(), procs, rng);
    // Prefer an increment that actually degrades something new; on a
    // small mesh late events may exhaust the options, in which case the
    // redundant draw stands (the timeline treats it as a no-op).
    for (int retry = 0; retry < 8 && (increment.empty() || !adds_new(cumulative, increment));
         ++retry) {
      increment = noc::random_fault_scenario(sys.mesh(), procs, rng);
    }
    ensure(!increment.empty(), "random_fault_stream: drew an empty fault scenario");
    merge_faults(cumulative, increment);
    stream.events.push_back({cycle, std::move(increment)});
  }
  return stream;
}

}  // namespace nocsched::search
