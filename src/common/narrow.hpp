#pragma once
// Checked integral narrowing.
//
// Rule D5 (nocsched-lint) bans unchecked narrowing static_casts in
// parser-adjacent code: the ITC'02 model stores 32-bit counts, and a
// silent truncation turns an absurd input into a plausible small
// number.  checked_narrow is the sanctioned route — it throws
// nocsched::Error when the value does not survive the round trip, and
// compiles to the plain cast plus one comparison otherwise.

#include <type_traits>

#include "common/error.hpp"

namespace nocsched {

/// `static_cast<To>(v)`, verified: throws nocsched::Error when the
/// result does not round-trip back to `v` (magnitude loss or sign
/// flip).  Both types must be integral.
template <typename To, typename From>
[[nodiscard]] constexpr To checked_narrow(From v) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "checked_narrow is for integral conversions");
  const To out = static_cast<To>(v);
  bool ok = static_cast<From>(out) == v;
  if constexpr (std::is_signed_v<From> != std::is_signed_v<To>) {
    ok = ok && ((out < To{}) == (v < From{}));
  }
  if (!ok) fail("narrowing conversion lost value ", v);
  return out;
}

/// An enum's value as its underlying integer type (C++23's
/// std::to_underlying): never narrowing, so never checked.
template <typename Enum>
[[nodiscard]] constexpr std::underlying_type_t<Enum> to_underlying(Enum e) {
  return static_cast<std::underlying_type_t<Enum>>(e);
}

}  // namespace nocsched
