// The JSONL serve loop over streams: results in input order, one line
// per request, malformed lines answered in-band with exact
// line-numbered diagnostics, output bytes independent of worker count
// and cache size (the engine's determinism contract carried over to the
// wire), answers written before the next line is read, and read-ahead
// bounded behind a slow request.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "engine/serve.hpp"

namespace {

using namespace nocsched;

/// An input that hands the reader one line per refill, like a client
/// writing one request at a time.  `before(i)` runs just before line i
/// (0-based) is handed over and may block, as a client does while it
/// waits for an answer.
class LineFeed : public std::streambuf {
 public:
  explicit LineFeed(std::vector<std::string> lines,
                    std::function<void(std::size_t)> before = nullptr)
      : lines_(std::move(lines)), before_(std::move(before)) {
    for (std::string& line : lines_) line += '\n';
  }

  /// Lines handed over so far; safe to read from any thread.
  [[nodiscard]] std::size_t lines_read() const { return read_.load(); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const std::size_t i = read_.load();
    if (i == lines_.size()) return traits_type::eof();
    if (before_) before_(i);
    read_.store(i + 1);
    std::string& line = lines_[i];
    setg(line.data(), line.data(), line.data() + line.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  std::function<void(std::size_t)> before_;
  std::atomic<std::size_t> read_{0};
};

/// An unbuffered output that collects whole lines and calls
/// `on_line(k)` as answer k's newline is written.
class LineSink : public std::streambuf {
 public:
  explicit LineSink(std::function<void(std::size_t)> on_line = nullptr)
      : on_line_(std::move(on_line)) {}

  [[nodiscard]] const std::vector<std::string>& lines() const { return lines_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] != '\n') {
        partial_ += s[i];
        continue;
      }
      lines_.push_back(std::move(partial_));
      partial_.clear();
      if (on_line_) on_line_(lines_.size() - 1);
    }
    return n;
  }

 private:
  std::function<void(std::size_t)> on_line_;
  std::vector<std::string> lines_;
  std::string partial_;
};

std::vector<std::string> serve_lines(const std::string& input,
                                     engine::ServeOptions options = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  const int rc = engine::serve(in, out, options);
  EXPECT_EQ(rc, 0);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  return lines;
}

TEST(Serve, HappyPathAnswersEveryRequestInOrder) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\": \"a\", \"soc\": \"d695\"}\n"
      "{\"id\": \"b\", \"soc\": \"d695\", \"procs\": 4}\n"
      "{\"id\": \"c\", \"soc\": \"rand:7\", \"procs\": 0}\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("{\"id\": \"a\", \"ok\": true, \"soc\": \"d695_leon\""), 0u)
      << lines[0];
  EXPECT_EQ(lines[1].find("{\"id\": \"b\", \"ok\": true, \"soc\": \"d695_leon\""), 0u)
      << lines[1];
  EXPECT_EQ(lines[2].find("{\"id\": \"c\", \"ok\": true, \"soc\": \"rand_"), 0u) << lines[2];
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"makespan\": "), std::string::npos) << line;
    EXPECT_NE(line.find("\"sessions\": "), std::string::npos) << line;
  }
}

TEST(Serve, EmptyObjectPlansTheDefaultSystem) {
  const std::vector<std::string> lines = serve_lines("{}\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("{\"id\": \"line-1\", \"ok\": true, \"soc\": \"d695_leon\""), 0u)
      << lines[0];
}

TEST(Serve, MalformedLineBecomesAnErrorObjectNotADeadProcess) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\": \"a\"}\n"
      "{\"soc\": \"nope\"}\n"
      "{\"id\": \"c\"}\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(lines[1],
            "{\"id\": \"line-2\", \"ok\": false, \"error\": \"stdin:2: unknown \\\"soc\\\" "
            "'nope' (expected d695|p22810|p93791 or rand:<seed>)\"}");
  EXPECT_NE(lines[2].find("\"id\": \"c\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\": true"), std::string::npos);
}

TEST(Serve, ExecutionFailuresCarryTheLineNumberedOrigin) {
  const std::vector<std::string> lines = serve_lines(
      "\n"
      "{\"id\": \"gone\", \"soc_file\": \"/nonexistent/fleet.soc\"}\n");
  ASSERT_EQ(lines.size(), 1u);  // the blank line produced no output
  EXPECT_EQ(lines[0].find("{\"id\": \"gone\", \"ok\": false, \"error\": \"stdin:2: "), 0u)
      << lines[0];
  EXPECT_NE(lines[0].find("/nonexistent/fleet.soc"), std::string::npos);
}

TEST(Serve, DiagnosticsUseTheConfiguredSourceName) {
  engine::ServeOptions options;
  options.source = "requests.jsonl";
  const std::vector<std::string> lines = serve_lines("nope\n", options);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"id\": \"line-1\", \"ok\": false, \"error\": \"requests.jsonl:1: expected "
            "'{' to open the request object\"}");
}

TEST(Serve, BlankLinesAndSurroundingWhitespaceAreIgnored) {
  const std::vector<std::string> lines = serve_lines(
      "\n"
      "   \n"
      "  {\"id\": \"padded\"}  \n"
      "\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("{\"id\": \"padded\", \"ok\": true"), 0u) << lines[0];
}

TEST(Serve, OutputBytesAreIndependentOfJobsAndCacheSize) {
  // A stream wider than the widest worker pool, mixing specs, power
  // limits, search, faults, and a parse error, so requests finish out of
  // input order.
  std::string input;
  for (int k = 0; k < 9; ++k) {
    switch (k % 4) {
      case 0: input += "{\"id\": \"g" + std::to_string(k) + "\"}\n"; break;
      case 1:
        input += "{\"id\": \"p" + std::to_string(k) + "\", \"procs\": 4, \"power\": 60}\n";
        break;
      case 2:
        input += "{\"id\": \"s" + std::to_string(k) +
                 "\", \"search\": \"restart\", \"iters\": 4}\n";
        break;
      default: input += "{\"oops\": " + std::to_string(k) + "}\n"; break;
    }
  }

  engine::ServeOptions reference_options;
  reference_options.jobs = 1;
  const std::vector<std::string> reference = serve_lines(input, reference_options);
  ASSERT_EQ(reference.size(), 9u);

  for (const unsigned jobs : {2u, 3u, 8u}) {
    engine::ServeOptions options;
    options.jobs = jobs;
    EXPECT_EQ(serve_lines(input, options), reference) << "jobs " << jobs;
  }

  // A tiny cache mid-stream changes eviction traffic, never bytes.
  engine::ServeOptions tiny;
  tiny.cache_capacity = 1;
  tiny.jobs = 2;
  EXPECT_EQ(serve_lines(input, tiny), reference);
}

TEST(Serve, AnswersAnInteractiveRequestBeforeReadingOn) {
  // The client sends one request and, before sending the next, waits
  // for its answer, holding the stream open (no EOF).  A server that
  // waits for more input before answering would leave both sides
  // waiting; the bounded wait turns that into a failure, not a hang.
  for (const unsigned jobs : {1u, 3u}) {
    std::mutex mutex;
    std::condition_variable cv;
    bool first_answered = false;
    bool gave_up = false;
    LineFeed feed({R"({"id": "first", "soc": "d695"})", R"({"id": "second"})"},
                  [&](std::size_t line) {
                    if (line != 1) return;
                    std::unique_lock<std::mutex> lock(mutex);
                    gave_up = !cv.wait_for(lock, std::chrono::seconds(20),
                                           [&] { return first_answered; });
                  });
    LineSink sink([&](std::size_t answer) {
      if (answer != 0) return;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        first_answered = true;
      }
      cv.notify_all();
    });
    std::istream in(&feed);
    std::ostream out(&sink);
    engine::ServeOptions options;
    options.jobs = jobs;
    EXPECT_EQ(engine::serve(in, out, options), 0);
    EXPECT_FALSE(gave_up) << "jobs " << jobs
                          << ": the first answer was not written while the client waited";
    ASSERT_EQ(sink.lines().size(), 2u);
    EXPECT_EQ(sink.lines()[0].find("{\"id\": \"first\", \"ok\": true"), 0u) << sink.lines()[0];
    EXPECT_EQ(sink.lines()[1].find("{\"id\": \"second\", \"ok\": true"), 0u)
        << sink.lines()[1];
  }
}

TEST(Serve, AWorkerThatThrowsReleasesTheOthersAndTheErrorReachesTheCaller) {
  // While the slow head runs, the other workers read on until the
  // window is full and then wait for the head's answer.  Writing answer
  // 2 fails (the client went away): the waiting workers must be
  // released rather than wait forever, the failure reaches the caller,
  // and nothing is written after it.
  std::vector<std::string> lines(40, R"({"soc": "d695"})");
  lines.front() = R"({"soc": "p93791", "search": "anneal", "iters": 256})";
  for (const unsigned jobs : {1u, 3u}) {
    LineFeed feed(lines);
    LineSink sink([](std::size_t answer) {
      if (answer == 2) throw std::runtime_error("client went away");
    });
    std::istream in(&feed);
    std::ostream out(&sink);
    out.exceptions(std::ios::badbit);
    engine::ServeOptions options;
    options.jobs = jobs;
    EXPECT_THROW((void)engine::serve(in, out, options), std::runtime_error) << "jobs " << jobs;
    EXPECT_EQ(sink.lines().size(), 3u) << "jobs " << jobs;
    EXPECT_LE(feed.lines_read(), 2 + engine::kAdmittedPerWorker * jobs) << "jobs " << jobs;
  }
}

TEST(Serve, ReadAheadIsBoundedBehindASlowHeadAndBytesDoNotMove) {
  // A slow search at the head, then many cheap requests of every kind:
  // workers that finish the cheap ones must not read on without bound
  // while the head's answer, which all later answers wait for, is
  // still running.
  std::vector<std::string> lines = {
      R"({"id": "head", "soc": "p93791", "search": "anneal", "iters": 1024})"};
  for (int k = 0; k < 48; ++k) {
    const std::string id = "\"id\": \"c" + std::to_string(k) + "\"";
    switch (k % 6) {
      case 0: lines.push_back("{" + id + ", \"soc\": \"d695\"}"); break;
      case 1:
        lines.push_back("{" + id + ", \"soc\": \"rand:" + std::to_string(k % 3) + "\"}");
        break;
      case 2: lines.push_back("{" + id + ", \"soc\": \"d695\", \"power\": 60}"); break;
      case 3:
        lines.push_back("{" + id +
                        ", \"soc\": \"d695\", \"procs\": 4, \"faults\": {\"procs\": [11]}}");
        break;
      case 4: lines.push_back("{" + id + ", \"soc\": \"d695\", \"procs\": 4}"); break;
      default: lines.push_back("{\"oops\": " + std::to_string(k) + "}"); break;
    }
  }

  std::vector<std::string> reference;
  for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
    for (const std::size_t cache : {std::size_t{1}, std::size_t{32}}) {
      const std::size_t window = engine::kAdmittedPerWorker * jobs;
      LineFeed feed(lines);
      std::vector<std::size_t> read_at_answer;
      LineSink sink([&](std::size_t) { read_at_answer.push_back(feed.lines_read()); });
      std::istream in(&feed);
      std::ostream out(&sink);
      engine::ServeOptions options;
      options.jobs = jobs;
      options.cache_capacity = cache;
      EXPECT_EQ(engine::serve(in, out, options), 0);

      const std::string where = "jobs " + std::to_string(jobs) + ", cache " + std::to_string(cache);
      ASSERT_EQ(sink.lines().size(), lines.size()) << where;
      if (reference.empty()) reference = sink.lines();
      EXPECT_EQ(sink.lines(), reference) << where;
      for (std::size_t k = 0; k < read_at_answer.size(); ++k) {
        EXPECT_LE(read_at_answer[k], k + window) << where << ", answer " << k;
        // One worker reads a line only after answering the one before.
        if (jobs == 1) {
          EXPECT_EQ(read_at_answer[k], k + 1) << where << ", answer " << k;
        }
      }
    }
  }
  EXPECT_EQ(reference.front().find("{\"id\": \"head\", \"ok\": true"), 0u) << reference.front();
  EXPECT_NE(std::find_if(reference.begin(), reference.end(),
                         [](const std::string& line) {
                           return line.find("\"ok\": false") != std::string::npos;
                         }),
            reference.end());
}

}  // namespace
