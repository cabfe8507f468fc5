#pragma once
// The plan server: a long-lived loop reading JSONL PlanRequests and
// emitting JSONL PlanResults, one object per line, in input order.
//
// Answers stream: a worker reads the next line only when it is free,
// executes it, and writes its answer as soon as every earlier answer
// has been written, flushing each one — so a client that sends one
// request and waits is answered at once, and lines nobody can start
// stay unread in the client's pipe.  Lines are parsed and their cache
// slots reserved serially in input order (deterministic eviction);
// execution runs on `jobs` workers, and answers that finish early wait
// in a reorder buffer.  A worker does not read past kAdmittedPerWorker
// unanswered requests per worker, so a slow request at the head bounds
// that buffer.  Result bytes are independent of worker count and cache
// state (the engine's determinism contract).
//
// Malformed lines become per-request error objects ({"id": ...,
// "ok": false, "error": "<source>:<line>: ..."}) — the process never
// dies on bad input.  Instrumented through the obs layer under serve.*
// (requests, results, errors, cache hits/misses/evictions) with wall
// time in the wall.serve.* namespace, which the byte-stable outputs
// drop.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "engine/engine.hpp"

namespace nocsched::engine {

/// Requests read but not yet answered, per worker, beyond which a free
/// worker waits for the oldest answer instead of reading on.
inline constexpr std::size_t kAdmittedPerWorker = 4;

/// Most workers serve() accepts: each is a thread for the whole loop,
/// so a larger `jobs` is rejected rather than spawned.
inline constexpr unsigned kMaxServeWorkers = 256;

struct ServeOptions {
  std::size_t cache_capacity = 32;  ///< PlanContexts kept across requests
  unsigned jobs = 0;                ///< request workers (0 = hardware threads)
  std::string source = "stdin";     ///< name in diagnostics ("<source>:<line>: ...")
};

/// One result line (no trailing newline): the ok object or the error
/// object, depending on result.ok.  Deterministic fields only — cache
/// and timing activity never reaches result bytes.
[[nodiscard]] std::string result_json(const PlanResult& result);

/// The error-object form for a line that failed before reaching the
/// engine (parse errors).
[[nodiscard]] std::string error_json(const std::string& id, const std::string& message);

/// Serve until EOF on `in`.  Returns 0; per-request failures are
/// reported in-band as error objects.  An exception out of a worker (a
/// throwing stream) stops further reading, lets the other workers
/// finish, and propagates with every earlier answer written.
int serve(std::istream& in, std::ostream& out, const ServeOptions& options);

}  // namespace nocsched::engine
