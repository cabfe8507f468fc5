// Fixture: rule D5 violations in wire-parser code (linted under a
// pretend src/engine/ path) — unchecked narrowing of parsed 64-bit
// values, including to the NoC's id aliases.
#include <cstdint>

namespace noc {
using RouterId = int;
using ChannelId = int;
}  // namespace noc

namespace engine {

int procs(std::uint64_t parsed) {
  return static_cast<int>(parsed);  // expect[D5]
}

noc::RouterId router(std::uint64_t parsed) {
  return static_cast<noc::RouterId>(parsed);  // expect[D5]
}

noc::ChannelId channel(std::uint64_t parsed) {
  return static_cast<noc::ChannelId>(parsed);  // expect[D5]
}

bool full_power(double pct) {
  return pct == 100.0;  // expect[D5]
}

}  // namespace engine
