#include "engine/serve.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "report/json_util.hpp"

namespace nocsched::engine {

std::string result_json(const PlanResult& result) {
  if (!result.ok) return error_json(result.id, result.error);
  report::JsonWriter out;
  out.add("id", result.id)
      .add("ok", true)
      .add("soc", result.context->system().soc().name)
      .add("makespan", result.schedule.makespan)
      .add("peak_power", result.schedule.peak_power)
      .add("sessions", result.schedule.sessions.size());
  if (result.search_metrics) {
    const obs::MetricsSnapshot& m = *result.search_metrics;
    out.object("search", [&](report::JsonWriter& search) {
      search.add("strategy", m.info_or("search.strategy"))
          .add("evaluations", m.counter_or("search.evaluations"))
          .add("first_makespan", m.gauge_or("search.first_makespan"))
          .add("best_makespan", m.gauge_or("search.best_makespan"));
    });
  }
  if (result.faulted) {
    out.add("dead", result.dead_modules)
        .add("untestable", result.untestable_modules)
        .add("pairs_rebuilt", result.pairs_rebuilt);
  }
  if (result.cross_check) {
    out.add("observed_makespan", result.cross_check->observed_makespan)
        .add("cross_check_ok", result.cross_check->ok());
  }
  return out.finish();
}

std::string error_json(const std::string& id, const std::string& message) {
  return report::JsonWriter().add("id", id).add("ok", false).add("error", message).finish();
}

int serve(std::istream& in, std::ostream& out, const ServeOptions& options) {
  ensure(options.jobs <= kMaxServeWorkers, "serve: jobs ", options.jobs,
         " is out of range (at most ", kMaxServeWorkers, " workers)");
  const unsigned workers =
      options.jobs == 0 ? std::min(hardware_jobs(), kMaxServeWorkers) : options.jobs;
  const std::size_t window = kAdmittedPerWorker * workers;
  Engine engine(EngineOptions{options.cache_capacity, workers});
  obs::MetricsRegistry& reg = obs::registry();

  // Input side: the stream, its line count, and the next ticket (input
  // order among answered lines).  Reserving under this lock keeps the
  // cache's reservation sequence the request sequence.
  std::mutex input_mutex;
  std::size_t line = 0;
  std::size_t admitted = 0;

  // Commit side: answers by ticket % window (a ticket is admitted only
  // within `window` of the next one to write, so slots never collide),
  // the next ticket to write, and whether a worker has thrown.
  std::mutex commit_mutex;
  std::condition_variable answered;
  std::vector<std::optional<std::string>> ready(window);
  std::size_t committed = 0;
  bool failed = false;

  // One admitted line: a request on its reserved slot, or a parse-error
  // answer ready to write.
  struct Admitted {
    std::size_t ticket = 0;
    std::optional<PlanRequest> request;
    ContextCache::SlotHandle slot;
    std::string answer;
  };

  // Reads the next non-blank line once the window has room; nothing at
  // EOF or after a worker failed.
  auto admit = [&]() -> std::optional<Admitted> {
    const std::lock_guard<std::mutex> input_lock(input_mutex);
    {
      std::unique_lock<std::mutex> lock(commit_mutex);
      answered.wait(lock, [&] { return failed || admitted - committed < window; });
      if (failed) return std::nullopt;
    }
    std::string raw;
    while (std::getline(in, raw)) {
      ++line;
      const std::string_view text = trim(raw);
      if (text.empty()) continue;
      if (reg.enabled()) reg.counter("serve.requests").inc();
      Admitted next;
      next.ticket = admitted++;
      try {
        next.request = parse_request(text, options.source, line);
      } catch (const std::exception& e) {
        if (reg.enabled()) reg.counter("serve.parse_errors").inc();
        next.answer = error_json(cat("line-", line), e.what());
        return next;
      }
      next.slot = engine.cache().reserve(next.request->system);
      return next;
    }
    return std::nullopt;
  };

  // Files an answer and writes every answer that is now next in order.
  auto commit = [&](std::size_t ticket, std::string answer) {
    const std::lock_guard<std::mutex> lock(commit_mutex);
    ready[ticket % window] = std::move(answer);
    std::size_t written = 0;
    while (ready[committed % window]) {
      std::optional<std::string>& head = ready[committed % window];
      out << *head << '\n';
      out.flush();
      head.reset();
      ++committed;
      ++written;
    }
    if (written == 0) return;
    if (reg.enabled()) reg.counter("serve.results").add(written);
    answered.notify_all();
  };

  // At one worker this runs inline on the caller: read, execute, write.
  parallel_for(workers, workers, [&](std::size_t) {
    try {
      while (std::optional<Admitted> next = admit()) {
        if (next->request) {
          const PlanResult result = engine.run(*next->request, next->slot);
          if (!result.ok && reg.enabled()) reg.counter("serve.request_errors").inc();
          next->answer = result_json(result);
        }
        commit(next->ticket, std::move(next->answer));
      }
    } catch (...) {
      // This worker's ticket may never be written, nor any after it
      // (say, bad_alloc after admission): release every worker waiting
      // for the window, and stop admitting.
      {
        const std::lock_guard<std::mutex> lock(commit_mutex);
        failed = true;
      }
      answered.notify_all();
      throw;
    }
  });
  return 0;
}

}  // namespace nocsched::engine
