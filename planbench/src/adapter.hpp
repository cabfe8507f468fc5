#pragma once
// The traced run's view of one request: the layers' public functions,
// called in the order Engine::execute calls them, with a span from the
// benchmark's own log around each call.
//
// TracedAdapter::run is the one place that mirrors the engine's
// pipeline (parse -> context -> replan | search | plan -> validate ->
// replay -> cross_check -> serialize).  Its answers must be
// byte-identical to Engine::run's; the traced run asserts that for
// every request, so a change to the engine's pipeline that the adapter
// no longer mirrors fails there, loudly, instead of skewing the layer
// numbers.  Every stage is entered for every request, so a stage a
// request skips records the few nanoseconds the skip costs.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/context_cache.hpp"
#include "stamp.hpp"

namespace planbench {

namespace engine = nocsched::engine;

struct SpanRecord {
  std::string_view name;  ///< a string literal
  std::size_t request = 0;
  std::ptrdiff_t parent = -1;  ///< index into the log, -1 for a root
  Stamp start;
  Stamp end;
};

class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name, std::size_t request, std::ptrdiff_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::ptrdiff_t index() const { return index_; }

   private:
    SpanLog& log_;
    std::ptrdiff_t index_;
  };

  [[nodiscard]] const std::vector<SpanRecord>& records() const { return records_; }
  void reserve(std::size_t n) { records_.reserve(n); }

 private:
  std::vector<SpanRecord> records_;
};

/// Self time per span name in ms: each span's duration minus the part
/// of it that its children cover (overlapping children counted once).
[[nodiscard]] std::map<std::string, double> self_time_ms(const std::vector<SpanRecord>& spans);

class TracedAdapter {
 public:
  explicit TracedAdapter(std::size_t cache_capacity) : cache_(cache_capacity) {}

  /// Answer one wire line exactly as the server would (serve's parse,
  /// Engine::execute, result_json), recording spans for `request`.
  [[nodiscard]] std::string run(std::string_view line, std::size_t line_no, std::size_t request,
                                SpanLog& log);

  [[nodiscard]] const engine::ContextCache& cache() const { return cache_; }

 private:
  engine::ContextCache cache_;
};

}  // namespace planbench
