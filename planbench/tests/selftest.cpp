// Tests for the benchmark's own machinery: the percentile and
// sample-count rule, the timestamping streambufs, the result checks
// and digest, and span self time.  Exits non-zero on the first failed
// expectation.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adapter.hpp"
#include "checks.hpp"
#include "stamp.hpp"
#include "stats.hpp"

namespace {

using namespace planbench;

int g_failures = 0;

#define EXPECT(cond)                                                              \
  do {                                                                            \
    if (!(cond)) {                                                                \
      std::cerr << __FILE__ << ":" << __LINE__ << ": expected " #cond "\n";       \
      ++g_failures;                                                               \
    }                                                                             \
  } while (0)

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

/// A source that delivers at most `step` bytes per read, so lines
/// arrive torn across reads.
class ShortReads : public std::streambuf {
 public:
  ShortReads(std::string text, std::size_t step) : text_(std::move(text)), step_(step) {}

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const std::size_t take =
        std::min({static_cast<std::size_t>(n), step_, text_.size() - pos_});
    text_.copy(s, take, pos_);
    pos_ += take;
    return static_cast<std::streamsize>(take);
  }

 private:
  std::string text_;
  std::size_t step_;
  std::size_t pos_ = 0;
};

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(percentile(v, 0.5) == 50);
  EXPECT(percentile(v, 0.95) == 95);
  EXPECT(percentile(v, 1.0) == 100);
  EXPECT(percentile({7.0}, 0.5) == 7.0);
  EXPECT(nearest_rank(200, 0.95) == 190);  // 0.95 * 200 must not round up to 191
  EXPECT(samples_beyond(200, 0.95) == 10);
  EXPECT(tail_supported(200, 0.95));
  EXPECT(samples_beyond(199, 0.95) == 9);
  EXPECT(!tail_supported(199, 0.95));
  std::vector<double> small(199, 1.0);
  EXPECT(throws([&] { (void)tail_percentile(small, 0.95); }));
  small.push_back(2.0);
  EXPECT(tail_percentile(small, 0.95) == 1.0);
  EXPECT(throws([] { (void)percentile({}, 0.5); }));
  EXPECT(throws([] { (void)percentile({1.0}, 0.0); }));
}

void in_stamps_one_per_line_across_short_reads() {
  const std::string text = "{\"id\": 1}\nb\n\nlonger line here\nlast-without-newline";
  const std::vector<std::string> want = {"{\"id\": 1}", "b", "", "longer line here",
                                         "last-without-newline"};
  for (std::size_t step = 1; step <= 7; ++step) {
    ShortReads source(text, step);
    std::vector<Stamp> stamps;
    InStampBuf buf(source, [&](Stamp t) { stamps.push_back(t); });
    std::istream in(&buf);
    std::vector<std::string> got;
    std::vector<Stamp> before;
    std::vector<Stamp> after;
    for (;;) {
      before.push_back(Clock::now());
      std::string line;
      if (!std::getline(in, line)) break;
      after.push_back(Clock::now());
      got.push_back(line);
    }
    EXPECT(got == want);
    EXPECT(stamps.size() == want.size());
    // Each line is stamped while the reader reads it — never ahead.
    for (std::size_t i = 0; i < stamps.size() && i < after.size(); ++i) {
      EXPECT(stamps[i] >= before[i]);
      EXPECT(stamps[i] <= after[i]);
    }
  }
}

void out_stamps_on_newline_across_split_writes() {
  std::vector<std::string> lines;
  std::vector<Stamp> stamps;
  OutStampBuf buf([&](std::string&& line, Stamp t) {
    lines.push_back(std::move(line));
    stamps.push_back(t);
  });
  std::ostream out(&buf);
  const Stamp t0 = Clock::now();
  out << "ab";
  EXPECT(lines.empty());
  out << "c\nd";
  const Stamp t1 = Clock::now();
  EXPECT(lines.size() == 1);
  out.put('\n');
  out << "\nxy";
  const Stamp t2 = Clock::now();
  out.put('z');
  out << "\ntail";
  out.flush();
  EXPECT((lines == std::vector<std::string>{"abc", "d", "", "xyz"}));
  EXPECT(buf.pending() == "tail");
  EXPECT(stamps.size() == 4);
  EXPECT(stamps[0] >= t0 && stamps[0] <= t1);
  EXPECT(stamps[1] >= t1 && stamps[2] <= t2);
  EXPECT(stamps[3] >= t2);
}

void cyclic_source_closes_at_line_boundaries() {
  const std::string text = "a\nb\nc\n";
  const auto read_all = [](std::istream& in) {
    std::vector<std::string> got;
    for (std::string line; std::getline(in, line);) got.push_back(line);
    return got;
  };
  {
    // A deadline long past still lets one full pass out.
    CyclicSource source(text, Stamp::min());
    std::size_t admitted = 0;
    InStampBuf buf(source, [&](Stamp) { ++admitted; });
    std::istream in(&buf);
    EXPECT((read_all(in) == std::vector<std::string>{"a", "b", "c"}));
    EXPECT(admitted == 3);
  }
  {
    // The stream wraps, and a deadline inside the second pass ends it
    // at the next line boundary.
    const Stamp deadline = Clock::now() + std::chrono::milliseconds(200);
    CyclicSource source(text, deadline);
    std::istream in(&source);
    std::vector<std::string> got;
    for (std::string line; got.size() < 4 && std::getline(in, line);) got.push_back(line);
    EXPECT(Clock::now() < deadline);
    EXPECT((got == std::vector<std::string>{"a", "b", "c", "a"}));
    std::this_thread::sleep_until(deadline);
    EXPECT(read_all(in).empty());
  }
  EXPECT(throws([] { CyclicSource bad("no newline", Stamp::min()); }));
}

void checks_and_digest() {
  const Expectation plain{"r1", 100, false, false};
  const Expectation simulate{"r2", 100, true, false};
  const Expectation faulted{"r3", 100, false, true};
  const std::string ok1 = R"({"id": "r1", "ok": true, "soc": "d695_leon", "makespan": 150, "peak_power": 1, "sessions": 3, "search": {"strategy": "anneal", "evaluations": 9, "first_makespan": 50, "best_makespan": 50}})";
  const std::string ok2 = R"({"id": "r2", "ok": true, "soc": "d695_leon", "makespan": 100, "peak_power": 1, "sessions": 3, "observed_makespan": 101, "cross_check_ok": true})";
  const std::string ok3 = R"({"id": "r3", "ok": true, "soc": "d695_leon", "makespan": 60, "peak_power": 1, "sessions": 3, "dead": [11], "untestable": [], "pairs_rebuilt": 4})";

  const Verdict v1 = check_answer(ok1, plain);
  EXPECT(v1.pass);
  EXPECT(v1.gap_pct && *v1.gap_pct == 50.0);  // reads "makespan", not "best_makespan"
  EXPECT(check_answer(ok2, simulate).pass);
  EXPECT(check_answer(ok2, simulate).gap_pct == std::optional<double>(0.0));
  EXPECT(check_answer(ok3, faulted).pass);  // the pristine bound does not bind a lossy plan
  EXPECT(!check_answer(ok3, faulted).gap_pct);
  const std::string lossless = R"({"id": "r3", "ok": true, "soc": "d695_leon", "makespan": 120, "peak_power": 1, "sessions": 3, "dead": [], "untestable": [], "pairs_rebuilt": 4})";
  EXPECT(check_answer(lossless, faulted).gap_pct == std::optional<double>(20.0));
  std::string lossless_below = lossless;
  lossless_below.replace(lossless_below.find("120"), 3, "060");
  EXPECT(!check_answer(lossless_below, faulted).pass);

  EXPECT(!check_answer(ok1, simulate).pass);  // wrong id: out of order
  std::string below = ok1;
  below.replace(below.find("150"), 3, "099");
  EXPECT(!check_answer(below, plain).pass);
  std::string broken = ok2;
  broken.replace(broken.find("\"cross_check_ok\": true"), 22, "\"cross_check_ok\": false");
  EXPECT(!check_answer(broken, simulate).pass);
  EXPECT(!check_answer(R"({"id": "r1", "ok": false, "error": "stdin:1: infeasible"})", plain).pass);
  EXPECT(!check_answer("garbage", plain).pass);
  EXPECT(!check_answer(R"({"id": "r2", "ok": true, "makespan": 100})", simulate).pass);

  Tally tally;
  tally.attempt(3);
  tally.add(check_answer(ok1, plain));
  tally.add(check_answer(ok2, simulate));
  tally.add(check_answer(below, plain));
  EXPECT(tally.failed() == 1);
  EXPECT(tally.gap_samples() == 2);
  EXPECT(tally.mean_gap_pct() == 25.0);

  // The digest sees any perturbed byte, and so does the line compare.
  const std::vector<std::string> stream = {ok1, ok2, ok3};
  std::vector<std::string> perturbed = stream;
  perturbed[1][perturbed[1].find("101")] = '2';
  EXPECT(digest_of(stream) == digest_of(stream));
  EXPECT(digest_of(stream) != digest_of(perturbed));
  EXPECT(digest_of(stream) != digest_of({ok1, ok2}));
  EXPECT(digest_of({"ab", "c"}) != digest_of({"a", "bc"}));  // line breaks are hashed
}

void self_time_subtracts_children_once() {
  const Stamp t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::vector<SpanRecord> spans = {
      {"request", 0, -1, at(0), at(10)},
      {"a", 0, 0, at(1), at(4)},
      {"b", 0, 0, at(3), at(6)},    // overlaps a: [1, 6) is covered once
      {"c", 0, 2, at(4), at(5)},    // child of b
      {"request", 1, -1, at(20), at(21)},
  };
  const auto self = self_time_ms(spans);
  EXPECT(self.at("request") == 5.0 + 1.0);
  EXPECT(self.at("a") == 3.0);
  EXPECT(self.at("b") == 2.0);
  EXPECT(self.at("c") == 1.0);
}

}  // namespace

int main() {
  percentile_rule();
  in_stamps_one_per_line_across_short_reads();
  out_stamps_on_newline_across_split_writes();
  cyclic_source_closes_at_line_boundaries();
  checks_and_digest();
  self_time_subtracts_children_once();
  if (g_failures > 0) {
    std::cerr << g_failures << " expectation(s) failed\n";
    return 1;
  }
  std::cout << "planbench selftest: all expectations hold\n";
  return 0;
}
