#pragma once
// Sample statistics and the result digest.
//
// Percentiles are nearest-rank: the q-percentile of n samples is the
// sample of 1-based rank ceil(q * n) in sorted order.  A tail
// percentile is reported only when at least kMinTailSamples samples lie
// beyond it, so a p95 needs n >= 200.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace planbench {

inline constexpr std::size_t kMinTailSamples = 10;

/// 1-based nearest rank of the q-percentile among n samples.  The
/// epsilon keeps q * n that should be integral (0.95 * 200) from
/// rounding up to the next rank.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("percentile outside (0, 1]");
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples ranked strictly above the q-percentile.
inline std::size_t samples_beyond(std::size_t n, double q) { return n - nearest_rank(n, q); }

inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

inline double percentile(std::vector<double> samples, double q) {
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// A tail percentile, refused when the sample cannot support it.
inline double tail_percentile(std::vector<double> samples, double q) {
  if (!tail_supported(samples.size(), q)) {
    throw std::runtime_error("percentile " + std::to_string(q) + " of " +
                             std::to_string(samples.size()) + " samples has fewer than " +
                             std::to_string(kMinTailSamples) + " samples beyond it");
  }
  return percentile(std::move(samples), q);
}

/// FNV-1a over result lines, each followed by '\n': equal digests mean
/// byte-identical result streams.
inline std::string digest_of(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  for (const std::string& line : lines) {
    for (const char c : line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace planbench
