// planbench: the plan server's benchmark.
//
//   planbench --workload <fleet-churn|itc02-search-sim|fault-replan>
//             --seed N --seconds S --trace 0|1 [--rev REV] [--src-sha256 HEX]
//
// --trace 0 (end to end): the workload's JSONL stream, repeated until S
// seconds have passed (at least once through), is fed in-process
// through engine::serve with default ServeOptions and kWorkers workers.  The
// streambuf wrappers in stamp.hpp stamp each line's admission and the
// writing of its answer.  Set-up time is sampled before and after the
// stream: a fresh Engine building the context of every distinct system.
//
// --trace 1 (per layer): one pass of the stream three ways — a serial
// Engine::run pass (reference answers and per-request service time),
// the same requests through TracedAdapter with spans and the obs
// registry on, and one serve pass with kWorkers workers for batch wait and
// worker utilisation.  These, and a serve pass with kCheckWorkers
// workers, must agree byte for byte.
//
// Every answer is checked (checks.hpp).  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
// code is 0 only when every check passed.

#include <algorithm>
#include <charconv>
#include <deque>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "adapter.hpp"
#include "checks.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "engine/engine.hpp"
#include "engine/serve.hpp"
#include "fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stamp.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace planbench;
namespace obs = nocsched::obs;

constexpr std::size_t kSetupMinRepeats = 15;  // per sampling window, after one warm-up
constexpr double kSetupMinMs = 1500;          // per sampling window
// One worker: measured on a shared 4-vCPU VM, runs with 2 or 4 workers
// spread wider from run to run than the bounds hold, above all in the
// latency tail, which doubles whenever a neighbour takes a worker's core.
constexpr unsigned kWorkers = 1;
// Answers are re-derived with this many workers: results must not
// depend on the worker count.
constexpr unsigned kCheckWorkers = 2;
constexpr std::size_t kContextCapacity = 32;  // ServeOptions' default, mirrored by the adapter
constexpr std::size_t kCheckPrefix = 128;     // answers re-derived per untraced run
constexpr std::size_t kLatencyReserve = std::size_t{1} << 19;  // > the answers of one run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string rev = "unknown";
  std::string src_sha256 = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--rev") {
      a.rev = value;
    } else if (flag == "--src-sha256") {
      a.src_sha256 = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

/// This process's peak resident set (VmHWM).  getrusage's ru_maxrss is
/// no substitute: Linux carries it across execve, so it would report
/// the launching process's peak whenever that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// A fresh Engine building every distinct system's context, in seconds.
double setup_seconds(const Workload& w) {
  const Stamp t0 = Clock::now();
  engine::Engine eng;
  for (const engine::SystemSpec& spec : w.systems) (void)eng.context(spec);
  return ms_between(t0, Clock::now()) / 1000.0;
}

/// Appends timed set-ups for at least kSetupMinMs and kSetupMinRepeats.
void sample_setup(const Workload& w, std::vector<double>& samples) {
  const Stamp start = Clock::now();
  for (std::size_t taken = 0;
       taken < kSetupMinRepeats || ms_between(start, Clock::now()) < kSetupMinMs; ++taken) {
    samples.push_back(setup_seconds(w));
  }
}

/// One engine::serve call over the workload's stream.  Bookkeeping
/// per answered line is one latency sample, so the benchmark's own
/// memory barely moves peak_rss_mb with the number of passes.
struct ServePass {
  std::size_t admitted = 0;
  std::size_t answered = 0;
  Stamp first_admitted{};
  Stamp last_answered{};
  std::vector<double> latency_ms;        ///< read-to-written time per answer, in order
  std::vector<std::string> first_cycle;  ///< answers to the stream's first pass
  std::vector<std::size_t> repeat_mismatches;  ///< later answers differing from the first pass
  std::string torn;  ///< output after the last newline

  [[nodiscard]] double wall_ms() const {
    return answered == 0 ? 0.0 : ms_between(first_admitted, last_answered);
  }
};

ServePass serve_stream(const Workload& w, Stamp deadline) {
  const std::size_t n = w.expect.size();
  ServePass pass;
  pass.latency_ms.reserve(kLatencyReserve);
  std::deque<Stamp> in_flight;  // admitted, not yet answered; answers come in input order
  CyclicSource source(w.text, deadline);
  InStampBuf in_buf(source, [&](Stamp admitted) {
    if (pass.admitted++ == 0) pass.first_admitted = admitted;
    in_flight.push_back(admitted);
  });
  std::istream in(&in_buf);
  OutStampBuf out_buf([&](std::string&& line, Stamp written) {
    const std::size_t i = pass.answered++;
    pass.last_answered = written;
    if (!in_flight.empty()) {
      pass.latency_ms.push_back(ms_between(in_flight.front(), written));
      in_flight.pop_front();
    }
    if (i < n) {
      pass.first_cycle.push_back(std::move(line));
    } else if (line != pass.first_cycle[i % n]) {
      pass.repeat_mismatches.push_back(i);
    }
  });
  std::ostream out(&out_buf);
  engine::ServeOptions opts;
  opts.jobs = kWorkers;
  nocsched::ensure(engine::serve(in, out, opts) == 0, "engine::serve returned non-zero");
  pass.torn = out_buf.pending();
  return pass;
}

/// Answers for the first `count` lines from a kCheckWorkers-worker server.
std::vector<std::string> check_answers(const Workload& w, std::size_t count) {
  const std::vector<std::string_view> lines = split_lines(w.text);
  std::string prefix;
  for (std::size_t i = 0; i < count && i < lines.size(); ++i) {
    prefix += lines[i];
    prefix += '\n';
  }
  std::istringstream in(prefix);
  std::ostringstream out;
  engine::ServeOptions opts;
  opts.jobs = kCheckWorkers;
  nocsched::ensure(engine::serve(in, out, opts) == 0, "engine::serve returned non-zero");
  std::vector<std::string> answers;
  std::istringstream read(out.str());
  for (std::string line; std::getline(read, line);) answers.push_back(line);
  return answers;
}

/// Checks one answer per request (plus whatever `extra` says about
/// answer i) and folds in the pass's missing, torn and repeat-mismatched
/// answers.
void tally_pass(const Workload& w, const ServePass& pass, const std::vector<std::string>& answers,
                Tally& tally, const std::function<std::string(std::size_t)>& extra) {
  tally.attempt(pass.admitted);
  for (std::size_t i = 0; i < w.expect.size(); ++i) {
    if (i >= answers.size()) {
      tally.fail("no answer for request " + w.expect[i].id);
      continue;
    }
    Verdict v = check_answer(answers[i], w.expect[i]);
    if (v.pass) {
      if (std::string problem = extra(i); !problem.empty()) {
        v.pass = false;
        v.problem = std::move(problem);
      }
    }
    tally.add(v);
  }
  for (const std::size_t i : pass.repeat_mismatches) {
    tally.fail("answer " + std::to_string(i) + " differs from the same request's first answer");
  }
  for (std::size_t i = std::max(pass.answered, w.expect.size()); i < pass.admitted; ++i) {
    tally.fail("no answer for line " + std::to_string(i + 1));
  }
  if (pass.answered > pass.admitted) tally.fail("more answers than requests");
  if (!pass.torn.empty()) tally.fail("torn last answer line");
}

std::vector<Metric> end_to_end(const Workload& w, double seconds, Tally& tally) {
  // Set-up is sampled for a while before and again after the stream,
  // and the fastest set-up is reported.  A set-up is fixed work, and a
  // neighbour's load on a shared machine only ever adds to it, for
  // stretches of a fraction of a second to tens of seconds: the median
  // of a window moves with those stretches, the minimum of two windows
  // apart far less.
  (void)setup_seconds(w);
  std::vector<double> setup;
  sample_setup(w, setup);

  const Stamp deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(seconds));
  const ServePass pass = serve_stream(w, deadline);

  sample_setup(w, setup);

  const std::size_t prefix = std::min(kCheckPrefix, w.expect.size());
  const std::vector<std::string> check = check_answers(w, prefix);
  tally_pass(w, pass, pass.first_cycle, tally, [&](std::size_t i) -> std::string {
    if (i >= prefix) return {};
    if (i >= check.size() || check[i] != pass.first_cycle[i]) {
      return "answer " + std::to_string(i) + " differs between " + std::to_string(kWorkers) +
             " and " + std::to_string(kCheckWorkers) + " workers";
    }
    return {};
  });

  std::cout << "stream: " << pass.admitted << " requests sent, " << pass.answered
            << " answered, " << w.expect.size() << " per pass\n"
            << "digest: " << digest_of(pass.first_cycle) << " (first pass, " << kWorkers
            << " worker(s)); first " << prefix << " answers re-derived with " << kCheckWorkers
            << " workers\n";

  const std::vector<double>& lat = pass.latency_ms;
  const double wall_s = pass.wall_ms() / 1000.0;
  return {
      {"throughput_rps", wall_s > 0 ? static_cast<double>(pass.answered) / wall_s : 0.0, "req/s",
       pass.answered},
      {"latency_p50_ms", percentile(lat, 0.5), "ms", lat.size()},
      {"latency_p95_ms", tail_percentile(lat, 0.95), "ms", lat.size()},
      {"setup_s", *std::min_element(setup.begin(), setup.end()), "s", setup.size()},
      {"peak_rss_mb", peak_rss_mib(), "MiB", 1},
      {"makespan_gap_pct", tally.mean_gap_pct(), "%", tally.gap_samples()},
  };
}

/// Sum of the library's own "pair_table_build" spans, from the
/// collector's chrome://tracing document (durations in whole us).
double pair_table_ms(const obs::TraceCollector& collector) {
  const std::string json = collector.json();
  const std::string name = "\"name\": \"pair_table_build\"";
  double us = 0;
  for (std::size_t pos = json.find(name); pos != std::string::npos;
       pos = json.find(name, pos + 1)) {
    const std::size_t dur = json.find("\"dur\": ", pos);
    if (dur == std::string::npos) break;
    us += std::stod(json.substr(dur + 7, 24));
  }
  return us / 1000.0;
}

/// The obs registry (zeroed) and `collector` switched on for its lifetime.
class ObsOn {
 public:
  explicit ObsOn(obs::TraceCollector& collector) {
    obs::registry().reset();
    obs::registry().set_enabled(true);
    obs::TraceCollector::install(&collector);
  }
  ~ObsOn() {
    obs::TraceCollector::install(nullptr);
    obs::registry().set_enabled(false);
  }
  ObsOn(const ObsOn&) = delete;
  ObsOn& operator=(const ObsOn&) = delete;
};

std::vector<Metric> per_layer(const Workload& w, Tally& tally) {
  const std::vector<std::string_view> lines = split_lines(w.text);
  const std::size_t n = lines.size();
  std::vector<engine::PlanRequest> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back(engine::parse_request(nocsched::trim(lines[i]), "stdin", i + 1));
  }

  // (a) Reference: serial Engine::run with tracing off, on a fresh
  // engine each time; the first pass only warms the process up.
  std::vector<std::string> reference(n);
  std::vector<double> service_ms(n);
  double reference_ms = 0;
  for (int pass = 0; pass < 2; ++pass) {
    engine::Engine eng(engine::EngineOptions{kContextCapacity, 1});
    const Stamp ref_start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const Stamp t0 = Clock::now();
      reference[i] = engine::result_json(eng.run(requests[i]));
      service_ms[i] = ms_between(t0, Clock::now());
    }
    reference_ms = ms_between(ref_start, Clock::now());
  }

  // (b) Traced: the adapter with spans, the obs registry and collector on.
  obs::TraceCollector collector;
  TracedAdapter adapter(kContextCapacity);
  SpanLog log;
  log.reserve(n * 12);
  std::vector<std::string> traced(n);
  double traced_ms = 0;
  {
    const ObsOn obs_on(collector);
    const Stamp traced_start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) traced[i] = adapter.run(lines[i], i + 1, i, log);
    traced_ms = ms_between(traced_start, Clock::now());
  }
  const obs::MetricsSnapshot counts = obs::registry().snapshot();

  // (c) The server with kWorkers workers, one pass; then the whole pass
  // again with kCheckWorkers workers, untimed.
  const ServePass pass = serve_stream(w, Stamp::min());
  const std::vector<std::string> check = check_answers(w, n);

  tally_pass(w, pass, reference, tally, [&](std::size_t i) -> std::string {
    if (traced[i] != reference[i]) {
      return "adapter answer " + std::to_string(i) + " differs from Engine::run";
    }
    if (i >= pass.first_cycle.size() || pass.first_cycle[i] != reference[i]) {
      return "serve answer " + std::to_string(i) + " differs from Engine::run";
    }
    if (i >= check.size() || check[i] != reference[i]) {
      return "serve answer " + std::to_string(i) + " with " + std::to_string(kCheckWorkers) +
             " workers differs from Engine::run";
    }
    return {};
  });

  const auto self = self_time_ms(log.records());
  const auto at = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto counter = [&](const char* name) {
    return static_cast<double>(counts.counter_or(name));
  };
  std::vector<double> wait;
  for (std::size_t i = 0; i < pass.latency_ms.size() && i < n; ++i) {
    wait.push_back(pass.latency_ms[i] - service_ms[i]);
  }
  double service_total = 0;
  for (const double s : service_ms) service_total += s;
  const double serve_wall_ms = pass.wall_ms();
  const engine::ContextCache::Stats cache = adapter.cache().stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  const double reused = counter("delta.reused_commits");
  const double repriced = counter("delta.repriced_commits");
  const double search_s = (at("search") + at("replan")) / 1000.0;
  const double replay_s = at("des.replay") / 1000.0;
  const double nd = static_cast<double>(n);

  std::cout << "digest: " << digest_of(reference) << " (Engine::run = adapter = serve with "
            << kWorkers << " and with " << kCheckWorkers << " workers)\n"
            << "context cache: " << cache.hits << " hits, " << cache.misses << " misses, "
            << cache.evictions << " evictions\n"
            << "self time by span (ms over " << n << " requests):";
  for (const auto& [name, ms] : self) std::cout << " " << name << "=" << number(ms);
  std::cout << "\n";

  return {
      {"engine.parse_us", 1000.0 * at("engine.parse") / nd, "us", n},
      {"engine.serialize_us", 1000.0 * at("engine.serialize") / nd, "us", n},
      {"engine.batch_wait_ms_p50", percentile(wait, 0.5), "ms", wait.size()},
      {"engine.worker_util",
       serve_wall_ms > 0 ? service_total / (serve_wall_ms * kWorkers) : 0.0, "ratio", n},
      {"context.hit_ratio", lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0,
       "ratio", static_cast<std::size_t>(lookups)},
      {"context.evictions", static_cast<double>(cache.evictions), "count", 1},
      {"context.build_ms", at("context"), "ms", n},
      {"context.pair_table_ms", pair_table_ms(collector), "ms",
       static_cast<std::size_t>(counter("pair_table.builds"))},
      {"search.ms", at("search"), "ms", n},
      {"search.evaluations", counter("search.evaluations"), "count", 1},
      {"search.evals_per_s", search_s > 0 ? counter("search.evaluations") / search_s : 0.0,
       "1/s", 1},
      {"search.delta_reuse_ratio", reused + repriced > 0 ? reused / (reused + repriced) : 0.0,
       "ratio", static_cast<std::size_t>(reused + repriced)},
      {"plan.ms", at("plan"), "ms", n},
      {"planner.probes", counter("planner.probes"), "count", 1},
      {"planner.commits", counter("planner.commits"), "count", 1},
      {"validate.ms", at("validate"), "ms", n},
      {"des.replay_ms", at("des.replay"), "ms", n},
      {"des.events", counter("des.events"), "count", 1},
      {"des.events_per_s", replay_s > 0 ? counter("des.events") / replay_s : 0.0, "1/s", 1},
      {"des.blocked_cycles", counter("des.blocked_cycles"), "count", 1},
      {"cross_check.ms", at("cross_check"), "ms", n},
      {"replan.ms", at("replan"), "ms", n},
      {"fault.pairs_rebuilt", counter("fault.pairs_rebuilt"), "count", 1},
      {"trace.overhead_pct", 100.0 * (traced_ms / reference_ms - 1.0), "%", 1},
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::cout << "fingerprint: " << to_json(fingerprint(args.rev, args.src_sha256)) << "\n";
    const Workload w = make_workload(args.workload, args.seed);
    std::cout << "workload: " << w.name << " seed " << args.seed << ", " << w.expect.size()
              << " requests over " << w.systems.size() << " systems, " << kWorkers
              << " worker(s), " << (args.trace ? "traced" : "untraced") << "\n";

    Tally tally;
    const std::vector<Metric> metrics =
        args.trace ? per_layer(w, tally) : end_to_end(w, args.seconds, tally);

    for (const std::string& problem : tally.problems()) std::cout << "FAILED: " << problem << "\n";
    std::cout << "failed_frac: " << tally.failed() << "/" << tally.attempted() << " = "
              << number(tally.attempted() ? static_cast<double>(tally.failed()) /
                                                static_cast<double>(tally.attempted())
                                          : 1.0)
              << "\n";
    for (const Metric& m : metrics) {
      std::cout << "metric " << m.name << " = " << number(m.value) << " " << m.unit
                << " (n=" << m.samples << ")\n";
    }
    const bool correct = tally.failed() == 0 && tally.attempted() > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted() << ", \"failed\": " << tally.failed()
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
                << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "planbench: " << e.what() << "\n";
    return 2;
  }
}
