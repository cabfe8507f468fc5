// Fixture: clean twin of d5_wire_violation — parsed values narrowed
// through checked_narrow, enums read through their underlying type,
// and range checks on the 64-bit value.
#include <cstdint>
#include <type_traits>

namespace noc {
using RouterId = int;
}  // namespace noc

namespace engine {

template <typename To, typename From>
To checked_narrow(From v);
template <typename Enum>
std::underlying_type_t<Enum> to_underlying(Enum e);

enum class Policy { kLongest, kShortest };

int procs(std::uint64_t parsed) {
  return checked_narrow<int>(parsed);  // the sanctioned route
}

noc::RouterId router(std::uint64_t parsed) {
  return checked_narrow<noc::RouterId>(parsed);
}

int policy_code(Policy p) {
  return to_underlying(p);  // an enum's own type: not a narrowing cast
}

bool in_range(double pct) {
  return pct > 0.0 && pct <= 100.0;  // ordering, not equality
}

std::uint64_t widen(int v) {
  return static_cast<std::uint64_t>(v);  // widening
}

}  // namespace engine
