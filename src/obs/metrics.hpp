#pragma once
// Deterministic-by-construction metrics: named counters, gauges, and
// fixed-bucket histograms with per-thread shards.
//
// Every value-carrying slot is sharded across kShards cache-line-padded
// relaxed atomics indexed by a per-thread registration index, so
// concurrent increments never contend on one line and never race; a
// snapshot merges the shards in shard-index order.  Because the *work*
// that drives the increments is itself deterministic (the parallel_for
// contract), merged totals are bit-identical at any --jobs count — the
// shard a given increment lands in varies run to run, the sum does not.
//
// Wall-clock values are the one deliberate exception: they live under
// the "wall." name prefix (and the dedicated wall-timer map) and are
// excluded from byte-stable outputs by MetricsSnapshot::deterministic().
//
// Instrumentation is free when disabled: hot paths accumulate plain
// local integers and flush once per run behind registry().enabled(),
// so the disabled path costs one relaxed load per flush site
// (bench/multistart_perf's metrics_overhead row prices the enabled path too).
// Metric objects are never destroyed once registered — reset() zeroes
// values but keeps registrations — so cached Counter& references from
// flush sites stay valid for the process lifetime.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nocsched::obs {

/// Shard count: a power of two comfortably above any sane worker count.
inline constexpr std::size_t kShards = 64;

/// This thread's shard index in [0, kShards): assigned once per thread
/// from a global registration counter, in thread-creation order.
[[nodiscard]] unsigned shard_index();

/// Monotonically increasing event count.  add() is wait-free after the
/// first call and safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Total across shards, merged in shard-index order.
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Slot& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// One shard's share — spans read their own thread's shard only, so
  /// per-span deltas never touch another thread's live slot.
  [[nodiscard]] std::uint64_t shard_value(unsigned shard) const {
    return shards_[shard % kShards].v.load(std::memory_order_relaxed);
  }

  void reset() {
    for (Slot& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kShards> shards_{};
};

/// A point-in-time signed value (last write wins; add() for deltas).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram over unsigned values.  Bucket i counts
/// observations v <= bounds[i] (Prometheus "le" semantics); one
/// implicit overflow bucket catches the rest.  Sharded like Counter.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v);

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket totals (bounds().size() + 1 entries, overflow last).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint64_t sum() const;
  void reset();

 private:
  // Per-shard layout: [bucket 0 .. bucket B] [sum]; stride_ slots.
  std::vector<std::uint64_t> bounds_;
  std::size_t stride_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
};

struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;  ///< ascending inclusive upper bounds
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1, overflow last
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

/// A merged, immutable view of a registry (or a hand-built record: the
/// search driver fills one per run so results are reportable without
/// touching global state).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, std::string> info;  ///< labels, e.g. strategy names
  std::map<std::string, double> wall;       ///< wall-clock ms — nondeterministic

  /// The byte-stable subset: drops the wall map and every entry whose
  /// name is in the "wall." namespace.
  [[nodiscard]] MetricsSnapshot deterministic() const;

  [[nodiscard]] std::uint64_t counter_or(const std::string& name,
                                         std::uint64_t fallback = 0) const;
  [[nodiscard]] std::int64_t gauge_or(const std::string& name, std::int64_t fallback = 0) const;
  [[nodiscard]] std::string info_or(const std::string& name, std::string fallback = "") const;
};

/// Name -> metric registry.  find-or-create takes a mutex; the returned
/// references are valid for the process lifetime (reset() zeroes values
/// without destroying objects), so callers cache them across runs.
class MetricsRegistry {
 public:
  /// Collection switch: instrumentation flush sites check this once per
  /// run and skip all registry work when off (the default).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Find-or-create; an existing histogram keeps its original bounds.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<std::uint64_t> bounds);
  void set_info(std::string_view name, std::string value);
  /// Wall timers: clearly-nondeterministic, kept out of byte-stable
  /// outputs regardless of name (they also conventionally start "wall.").
  void set_wall_ms(std::string_view name, double ms);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Registered counters in name order — the span tracer snapshots
  /// these per thread to attach per-span counter deltas.
  [[nodiscard]] std::vector<std::pair<std::string, const Counter*>> counter_list() const;
  /// Zero every value; registrations (and references to them) survive.
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> info_;
  std::map<std::string, double> wall_;
};

/// The process-wide registry every instrumentation site flushes into.
[[nodiscard]] MetricsRegistry& registry();

}  // namespace nocsched::obs
