#!/bin/sh
# Smoke test for nocsched_cli: every --format on the paper's smallest
# system, plus the error paths.  Registered with ctest; usage:
#   smoke_test.sh <path-to-nocsched_cli>
set -u

cli=${1:?usage: smoke_test.sh <path-to-nocsched_cli>}
fails=0

check() {
  desc=$1
  shift
  if "$@" >/dev/null 2>&1; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc (command: $*)" >&2
    fails=$((fails + 1))
  fi
}

# Exit 0 and non-empty stdout for every output format.
for fmt in table gantt csv json all; do
  out=$("$cli" --soc d695 --procs 4 --format "$fmt" 2>/dev/null)
  rc=$?
  if [ "$rc" -eq 0 ] && [ -n "$out" ]; then
    echo "ok: --format $fmt"
  else
    echo "FAIL: --format $fmt produced rc=$rc / empty output" >&2
    fails=$((fails + 1))
  fi
done

# The JSON format must carry the fields downstream tooling keys on.
json=$("$cli" --soc d695 --procs 4 --format json 2>/dev/null)
case $json in
  *'"makespan"'*'"sessions"'*) echo "ok: json has makespan + sessions" ;;
  *) echo "FAIL: json output missing makespan/sessions" >&2
     fails=$((fails + 1)) ;;
esac

# Every output format again, replayed through the flit-level simulator.
for fmt in table gantt csv json all; do
  out=$("$cli" --soc d695 --procs 4 --simulate --format "$fmt" 2>/dev/null)
  rc=$?
  if [ "$rc" -eq 0 ] && [ -n "$out" ]; then
    echo "ok: --simulate --format $fmt"
  else
    echo "FAIL: --simulate --format $fmt produced rc=$rc / empty output" >&2
    fails=$((fails + 1))
  fi
done

# The simulated JSON must carry plan-vs-observed timing and a clean
# cross-check.
simjson=$("$cli" --soc d695 --procs 4 --simulate --format json 2>/dev/null)
case $simjson in
  *'"planned_makespan"'*'"observed_makespan"'*'"ok": true'*)
    echo "ok: simulate json has planned/observed makespan + passing cross-check" ;;
  *) echo "FAIL: simulate json missing observed makespan or cross-check" >&2
     fails=$((fails + 1)) ;;
esac

# Other front-end knobs reachable from the same system.
check "--cpu plasma"        "$cli" --soc d695 --cpu plasma --procs 4 --format table
check "--power 50"          "$cli" --soc d695 --procs 4 --power 50 --format table
check "--policy shortest"   "$cli" --soc d695 --procs 4 --policy shortest --format table
check "--restarts 3"        "$cli" --soc d695 --procs 4 --restarts 3 --format table
check "--search anneal"     "$cli" --soc d695 --procs 4 --search anneal --iters 20 --format table
check "--search local"      "$cli" --soc d695 --procs 4 --search local --iters 20 --format table
check "--search restart"    "$cli" --soc d695 --procs 4 --search restart --format table

# A searched plan's JSON must carry the search metrics object.
sjson=$("$cli" --soc d695 --procs 4 --search local --iters 10 --format json 2>/dev/null)
case $sjson in
  *'"search"'*'"strategy": "local"'*'"evaluations"'*)
    echo "ok: search json has strategy metrics" ;;
  *) echo "FAIL: search json missing search metrics" >&2
     fails=$((fails + 1)) ;;
esac

# ...and a plain greedy plan's JSON must not.
gjson=$("$cli" --soc d695 --procs 4 --format json 2>/dev/null)
case $gjson in
  *'"search"'*) echo "FAIL: greedy json unexpectedly has a search object" >&2
                fails=$((fails + 1)) ;;
  *) echo "ok: greedy json has no search object" ;;
esac

# Every strategy is reproducible and jobs-invariant from the CLI.
for strat in restart anneal local; do
  s1=$("$cli" --soc d695 --procs 4 --search "$strat" --iters 8 --seed 7 --jobs 1 --format csv 2>/dev/null)
  s4=$("$cli" --soc d695 --procs 4 --search "$strat" --iters 8 --seed 7 --jobs 4 --format csv 2>/dev/null)
  if [ -n "$s1" ] && [ "$s1" = "$s4" ]; then
    echo "ok: --search $strat jobs-invariant"
  else
    echo "FAIL: --search $strat --jobs 4 and --jobs 1 disagreed" >&2
    fails=$((fails + 1))
  fi
done

# --restarts N must stay an exact alias for --search restart --iters N.
alias_a=$("$cli" --soc d695 --procs 4 --restarts 5 --seed 3 --format csv 2>/dev/null)
alias_b=$("$cli" --soc d695 --procs 4 --search restart --iters 5 --seed 3 --format csv 2>/dev/null)
if [ -n "$alias_a" ] && [ "$alias_a" = "$alias_b" ]; then
  echo "ok: --restarts aliases --search restart --iters"
else
  echo "FAIL: --restarts 5 and --search restart --iters 5 disagreed" >&2
  fails=$((fails + 1))
fi

# --seed makes multistart runs reproducible from the command line.
seed_a=$("$cli" --soc d695 --procs 4 --restarts 3 --seed 7 --format csv 2>/dev/null)
seed_b=$("$cli" --soc d695 --procs 4 --restarts 3 --seed 7 --format csv 2>/dev/null)
if [ -n "$seed_a" ] && [ "$seed_a" = "$seed_b" ]; then
  echo "ok: --seed reproducible"
else
  echo "FAIL: two --restarts 3 --seed 7 runs disagreed" >&2
  fails=$((fails + 1))
fi

# --jobs parallelizes multistart without changing the answer.
jobs_1=$("$cli" --soc d695 --procs 4 --restarts 6 --seed 7 --jobs 1 --format csv 2>/dev/null)
jobs_4=$("$cli" --soc d695 --procs 4 --restarts 6 --seed 7 --jobs 4 --format csv 2>/dev/null)
if [ -n "$jobs_1" ] && [ "$jobs_1" = "$jobs_4" ]; then
  echo "ok: --jobs 4 matches --jobs 1"
else
  echo "FAIL: --jobs 4 and --jobs 1 disagreed for the same seed" >&2
  fails=$((fails + 1))
fi

# Fault injection: every format must render a scenario end to end.
for fmt in table gantt csv json all; do
  out=$("$cli" --soc d695 --procs 4 --fail-links 0:1 --fail-procs 11 --format "$fmt" 2>/dev/null)
  rc=$?
  if [ "$rc" -eq 0 ] && [ -n "$out" ]; then
    echo "ok: fault scenario --format $fmt"
  else
    echo "FAIL: fault scenario --format $fmt produced rc=$rc / empty output" >&2
    fails=$((fails + 1))
  fi
done

# The fault JSON must carry the robustness classification and the replan.
fjson=$("$cli" --soc d695 --procs 4 --fail-links 0:1 --fail-procs 11 --format json 2>/dev/null)
case $fjson in
  *'"faults"'*'"robustness"'*'"unroutable"'*'"replan"'*)
    echo "ok: fault json has faults + robustness + replan" ;;
  *) echo "FAIL: fault json missing faults/robustness/replan" >&2
     fails=$((fails + 1)) ;;
esac

# Router faults resolve through the same pipeline.
check "--fail-routers"      "$cli" --soc d695 --procs 4 --fail-routers 5 --format table

# A fault sweep renders rows and is reproducible from its seed.
sweep_a=$("$cli" --soc d695 --procs 4 --fault-sweep 3 --fault-seed 9 --format csv 2>/dev/null)
sweep_b=$("$cli" --soc d695 --procs 4 --fault-sweep 3 --fault-seed 9 --format csv 2>/dev/null)
if [ -n "$sweep_a" ] && [ "$sweep_a" = "$sweep_b" ]; then
  echo "ok: --fault-sweep reproducible from --fault-seed"
else
  echo "FAIL: two --fault-sweep 3 --fault-seed 9 runs disagreed" >&2
  fails=$((fails + 1))
fi
check "--fault-sweep json"  "$cli" --soc d695 --procs 4 --fault-sweep 2 --format json

# The sweep document is pinned byte for byte (CRC and length from
# cksum), as tests/report/json_golden_test.cpp pins the report layer's
# documents: a layout change must update this constant deliberately.
sweep_sum=$("$cli" --soc d695 --procs 4 --fault-sweep 3 --fault-seed 9 --format json 2>/dev/null \
  | cksum)
if [ "$sweep_sum" = "4116351459 670" ]; then
  echo "ok: --fault-sweep json bytes match the golden checksum"
else
  echo "FAIL: --fault-sweep json checksum is '$sweep_sum', expected '4116351459 670'" >&2
  fails=$((fails + 1))
fi

# Online fault streams: every format renders a full timeline end to end.
for fmt in table csv json all; do
  out=$("$cli" --soc d695 --procs 4 --fault-stream 2 --format "$fmt" 2>/dev/null)
  rc=$?
  if [ "$rc" -eq 0 ] && [ -n "$out" ]; then
    echo "ok: --fault-stream --format $fmt"
  else
    echo "FAIL: --fault-stream --format $fmt produced rc=$rc / empty output" >&2
    fails=$((fails + 1))
  fi
done

# The stream JSON must carry the timeline structure downstream tooling
# keys on.
sjson=$("$cli" --soc d695 --procs 4 --fault-stream 2 --format json 2>/dev/null)
case $sjson in
  *'"events"'*'"epochs"'*'"coverage_retained"'*'"makespan_stretch"'*)
    echo "ok: stream json has events + epochs + coverage + stretch" ;;
  *) echo "FAIL: stream json missing timeline fields" >&2
     fails=$((fails + 1)) ;;
esac

# ...and is reproducible from its seed.
stream_a=$("$cli" --soc d695 --procs 4 --fault-stream 2 --fault-seed 9 --format csv 2>/dev/null)
stream_b=$("$cli" --soc d695 --procs 4 --fault-stream 2 --fault-seed 9 --format csv 2>/dev/null)
if [ -n "$stream_a" ] && [ "$stream_a" = "$stream_b" ]; then
  echo "ok: --fault-stream reproducible from --fault-seed"
else
  echo "FAIL: two --fault-stream 2 --fault-seed 9 runs disagreed" >&2
  fails=$((fails + 1))
fi

# An explicit JSONL timeline drives the same pipeline.
streamfile="${TMPDIR:-/tmp}/nocsched_smoke_stream.$$.jsonl"
cat > "$streamfile" <<'EOF'
{"cycle": 20000, "links": ["0:1"]}

{"cycle": 45000, "routers": [2], "procs": [11]}
EOF
check "--fault-stream-file" "$cli" --soc d695 --procs 4 --fault-stream-file "$streamfile" --format table

# Malformed stream files are rejected with a <path>:<line>: diagnostic
# naming the offending field.
reject_stream_file() {
  desc=$1
  wanted=$2
  printf '%s\n' "$3" > "$streamfile"
  err=$("$cli" --soc d695 --procs 4 --fault-stream-file "$streamfile" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    0:*) echo "FAIL: $desc exited 0" >&2
         fails=$((fails + 1)) ;;
    *"$streamfile:$wanted"*) echo "ok: $desc rejected with line-numbered diagnostic" ;;
    *) echo "FAIL: $desc diagnostic unclear: $err" >&2
       fails=$((fails + 1)) ;;
  esac
}
reject_stream_file "stream file bad router id" "1: no router '99'" \
  '{"cycle": 10, "links": ["0:99"]}'
reject_stream_file "stream file non-adjacent link" "1: link '0:9': routers 0 and 9 are not adjacent" \
  '{"cycle": 10, "links": ["0:9"]}'
reject_stream_file "stream file non-processor proc" "1: module 1" \
  '{"cycle": 10, "procs": [1]}'
reject_stream_file "stream file out-of-range cycle" "1: \"cycle\"" \
  '{"cycle": 9223372036854775808, "links": ["0:1"]}'
reject_stream_file "stream file non-monotone events" "2: event cycle 400 is not after" \
  '{"cycle": 500, "links": ["0:1"]}
{"cycle": 400, "procs": [11]}'
reject_stream_file "stream file empty increment" "1: event breaks nothing" \
  '{"cycle": 10}'
rm -f "$streamfile"

# Plan server: --serve answers JSONL requests on stdin with one JSONL
# result per line, exit 0.
serve_out=$(printf '%s\n' \
  '{"id": "a", "soc": "d695", "procs": 4}' \
  '{"id": "b", "soc": "d695", "procs": 4, "power": 50}' \
  '{"id": "c", "soc": "d695", "procs": 4, "search": "restart", "iters": 4}' \
  | "$cli" --serve 2>/dev/null)
rc=$?
if [ "$rc" -eq 0 ] && [ "$(printf '%s\n' "$serve_out" | wc -l)" -eq 3 ]; then
  echo "ok: --serve answers three requests with three results"
else
  echo "FAIL: --serve produced rc=$rc / wrong line count: $serve_out" >&2
  fails=$((fails + 1))
fi
case $serve_out in
  *'"id": "a", "ok": true'*'"id": "b", "ok": true'*'"id": "c", "ok": true'*)
    echo "ok: --serve results carry ids in input order" ;;
  *) echo "FAIL: --serve results missing ids or out of order: $serve_out" >&2
     fails=$((fails + 1)) ;;
esac

# A malformed line becomes a per-request error object — the process
# answers it in-band and keeps serving, exit still 0.
serve_err=$(printf '%s\n' \
  '{"id": "good"}' \
  'this is not json' \
  '{"id": "after"}' \
  | "$cli" --serve 2>/dev/null)
rc=$?
case "$rc:$serve_err" in
  0:*'"id": "line-2", "ok": false, "error": "stdin:2: '*'"id": "after", "ok": true'*)
    echo "ok: --serve answers a malformed line in-band and keeps serving" ;;
  *) echo "FAIL: --serve malformed-line handling (rc=$rc): $serve_err" >&2
     fails=$((fails + 1)) ;;
esac

# Answers stream in input order whatever the worker count: a mixed
# stream (a slow search first, then greedy, power-limited, faulted,
# simulated, random-SoC and malformed lines) answers byte-identically
# at --jobs 1 and --jobs 3.
mixed=$(printf '%s\n' \
  '{"id": "slow", "soc": "p93791", "search": "anneal", "iters": 256}' \
  '{"id": "g", "soc": "d695", "procs": 4}' \
  '{"id": "p", "soc": "d695", "procs": 4, "power": 50}' \
  '{"id": "f", "soc": "d695", "procs": 4, "faults": {"procs": [11]}}' \
  'not json' \
  '{"id": "s", "soc": "d695", "simulate": true}' \
  '{"id": "r", "soc": "rand:7", "procs": 2}' \
  '{"id": "l", "soc": "p22810", "search": "local", "iters": 16}')
serve_j1=$(printf '%s\n' "$mixed" | "$cli" --serve --jobs 1 2>/dev/null)
rc1=$?
serve_j3=$(printf '%s\n' "$mixed" | "$cli" --serve --jobs 3 2>/dev/null)
rc3=$?
if [ "$rc1:$rc3" = "0:0" ] && [ "$(printf '%s\n' "$serve_j1" | wc -l)" -eq 8 ] \
   && [ "$serve_j1" = "$serve_j3" ]; then
  echo "ok: --serve --jobs 1 and --jobs 3 answer a mixed stream byte-identically"
else
  echo "FAIL: --serve output differs across --jobs (rc=$rc1/$rc3):" >&2
  printf '%s\n--- vs ---\n%s\n' "$serve_j1" "$serve_j3" >&2
  fails=$((fails + 1))
fi

# "mesh" is range-checked before it narrows to int, and a builtin SoC
# (whose mesh is fixed) rejects one instead of ignoring it: each line
# gets an exact in-band diagnostic.
mesh_err=$(printf '%s\n' \
  '{"soc":"rand:7","mesh":"4294967300x2"}' \
  '{"soc":"rand:7","mesh":"2147483649x2"}' \
  '{"soc":"d695","mesh":"1x1"}' \
  | "$cli" --serve 2>/dev/null)
rc=$?
mesh_want='{"id": "line-1", "ok": false, "error": "stdin:1: \"mesh\" '"'"'4294967300x2'"'"' is out of range (at most 64 per side)"}
{"id": "line-2", "ok": false, "error": "stdin:2: \"mesh\" '"'"'2147483649x2'"'"' is out of range (at most 64 per side)"}
{"id": "line-3", "ok": false, "error": "stdin:3: \"mesh\" applies only to soc_file and rand: systems, not the builtin SoC '"'"'d695'"'"'"}'
if [ "$rc" -eq 0 ] && [ "$mesh_err" = "$mesh_want" ]; then
  echo "ok: --serve rejects out-of-range and builtin-SoC meshes in-band"
else
  echo "FAIL: --serve mesh diagnostics (rc=$rc): $mesh_err" >&2
  fails=$((fails + 1))
fi

# "iters" is capped on the wire: a hostile search budget gets an exact
# in-band diagnostic instead of holding up every answer behind it, and
# the request behind it is still answered.
iters_err=$(printf '%s\n' \
  '{"soc":"p93791","search":"anneal","iters":100000000000}' \
  '{"id":"after","soc":"d695","search":"anneal","iters":16}' \
  | "$cli" --serve 2>/dev/null)
rc=$?
case "$rc:$iters_err" in
  0:'{"id": "line-1", "ok": false, "error": "stdin:1: \"iters\" 100000000000 is out of range (at most 16384)"}
{"id": "after", "ok": true'*)
    echo "ok: --serve rejects an out-of-range iters in-band and keeps serving" ;;
  *) echo "FAIL: --serve iters cap (rc=$rc): $iters_err" >&2
     fails=$((fails + 1)) ;;
esac

# A dead ATE input router leaves the two processors able to test only
# each other: nothing is grounded in an ATE session, so every module is
# reported as lost coverage in-band instead of "planner stuck".
ate_dead=$(printf '%s\n' '{"soc":"p93791","procs":2,"faults":{"routers":[0]}}' \
  | "$cli" --serve 2>/dev/null)
rc=$?
ate_dead_want='{"id": "line-1", "ok": true, "soc": "p93791_leon", "makespan": 0, "peak_power": 0, "sessions": 0, "dead": [], "untestable": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34], "pairs_rebuilt": 34}'
if [ "$rc" -eq 0 ] && [ "$ate_dead" = "$ate_dead_want" ]; then
  echo "ok: --serve reports a dead ATE router as lost coverage"
else
  echo "FAIL: --serve dead ATE router (rc=$rc): $ate_dead" >&2
  fails=$((fails + 1))
fi

# The one-shot --mesh flag applies the same checks.
for case in "--soc rand:7 --mesh 4294967300x2|nocsched_cli: --mesh 4294967300x2 is out of range (each side in [1, 64])" \
            "--soc rand:7 --mesh 0x2|nocsched_cli: --mesh 0x2 is out of range (each side in [1, 64])" \
            "--soc d695 --mesh 4x4|nocsched_cli: --mesh applies only to --soc-file and rand: systems, not the builtin SoC 'd695'"; do
  args=${case%%|*}
  want=${case#*|}
  # shellcheck disable=SC2086  # intentional word splitting of $args
  err=$("$cli" $args 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -eq 1 ] && [ "$err" = "$want" ]; then
    echo "ok: $args rejected"
  else
    echo "FAIL: $args (rc=$rc): $err" >&2
    fails=$((fails + 1))
  fi
done

# The serve path and the one-shot path are the same engine: identical
# requests produce the same plan numbers.
oneshot_makespan=$("$cli" --soc d695 --procs 4 --format json 2>/dev/null \
  | sed -n 's/.*"makespan": \([0-9]*\).*/\1/p' | head -n 1)
serve_makespan=$(printf '{"soc": "d695", "procs": 4}\n' | "$cli" --serve 2>/dev/null \
  | sed -n 's/.*"makespan": \([0-9]*\).*/\1/p' | head -n 1)
if [ -n "$oneshot_makespan" ] && [ "$oneshot_makespan" = "$serve_makespan" ]; then
  echo "ok: --serve agrees with the one-shot adapter on the makespan"
else
  echo "FAIL: one-shot makespan '$oneshot_makespan' != serve makespan '$serve_makespan'" >&2
  fails=$((fails + 1))
fi

# The one-shot adapters stayed byte-stable: two identical runs agree in
# every format (the engine refactor must not leak cache or timing state
# into output bytes).
for fmt in table csv json; do
  one_a=$("$cli" --soc d695 --procs 4 --power 50 --format "$fmt" 2>/dev/null)
  one_b=$("$cli" --soc d695 --procs 4 --power 50 --format "$fmt" 2>/dev/null)
  if [ -n "$one_a" ] && [ "$one_a" = "$one_b" ]; then
    echo "ok: one-shot --format $fmt byte-stable"
  else
    echo "FAIL: two identical one-shot runs disagreed at --format $fmt" >&2
    fails=$((fails + 1))
  fi
done

# --serve excludes the one-shot request flags (requests carry them),
# the serve knobs require --serve, and the batch knob is gone.
for bad in "--serve --soc d695" "--serve --power 50" "--serve --simulate" \
           "--serve --fail-procs 11" "--serve --format json" \
           "--serve-batch 4" "--serve --serve-batch 4" "--serve-cache 8"; do
  # shellcheck disable=SC2086  # intentional word splitting of $bad
  if "$cli" $bad >/dev/null 2>&1 </dev/null; then
    echo "FAIL: '$bad' exited 0" >&2
    fails=$((fails + 1))
  else
    echo "ok: '$bad' rejected"
  fi
done

# ...with diagnostics that name the conflicting flag.
err=$("$cli" --serve --soc d695 2>&1 >/dev/null </dev/null)
case $err in
  *'--serve'*'--soc'*) echo "ok: --serve exclusion diagnostic names the flag" ;;
  *) echo "FAIL: --serve exclusion diagnostic unclear: $err" >&2
     fails=$((fails + 1)) ;;
esac

# Each serve worker is a thread for the whole loop, so an absurd --jobs
# is rejected up front instead of spawned.
err=$("$cli" --serve --jobs 100000 2>&1 >/dev/null </dev/null)
rc=$?
case "$rc:$err" in
  1:*'jobs 100000 is out of range (at most 256 workers)'*)
    echo "ok: --serve rejects more than 256 workers" ;;
  *) echo "FAIL: --serve --jobs 100000 (rc=$rc): $err" >&2
     fails=$((fails + 1)) ;;
esac

# Answers are not batched, so there is no batch size to set: the old
# flag is an unknown option, named in the diagnostic.
err=$("$cli" --serve --serve-batch 4 2>&1 >/dev/null </dev/null)
case $err in
  *'unknown option --serve-batch'*) echo "ok: --serve-batch is rejected as an unknown option" ;;
  *) echo "FAIL: --serve-batch diagnostic unclear: $err" >&2
     fails=$((fails + 1)) ;;
esac

# --serve with --metrics keeps stdout pure JSONL (metrics on stderr).
serve_m=$(printf '{"id": "m"}\n' | "$cli" --serve --metrics table 2>/dev/null)
serve_merr=$(printf '{"id": "m"}\n' | "$cli" --serve --metrics table 2>&1 >/dev/null)
case "$serve_m:$serve_merr" in
  '{"id": "m", "ok": true'*serve.requests*)
    echo "ok: --serve --metrics reports serve.* on stderr, JSONL on stdout" ;;
  *) echo "FAIL: --serve --metrics stdout/stderr split broken: $serve_m / $serve_merr" >&2
     fails=$((fails + 1)) ;;
esac

# Observability: --metrics reports to stderr in every exposition
# format while stdout stays byte-identical to an uninstrumented run.
plain=$("$cli" --soc d695 --procs 4 --format csv 2>/dev/null)
for mfmt in table csv json prom; do
  mout=$("$cli" --soc d695 --procs 4 --format csv --metrics "$mfmt" 2>/dev/null)
  merr=$("$cli" --soc d695 --procs 4 --format csv --metrics "$mfmt" 2>&1 >/dev/null)
  if [ -n "$merr" ] && [ "$mout" = "$plain" ]; then
    echo "ok: --metrics $mfmt on stderr, stdout unchanged"
  else
    echo "FAIL: --metrics $mfmt changed stdout or wrote nothing to stderr" >&2
    fails=$((fails + 1))
  fi
done

# The metrics report carries the planner profile.
merr=$("$cli" --soc d695 --procs 4 --metrics table 2>&1 >/dev/null)
case $merr in
  *planner.runs*) echo "ok: --metrics table reports planner.runs" ;;
  *) echo "FAIL: metrics report missing planner.runs: $merr" >&2
     fails=$((fails + 1)) ;;
esac

# --trace-out writes a chrome://tracing document with the phase spans.
trace="${TMPDIR:-/tmp}/nocsched_smoke_trace.$$.json"
if "$cli" --soc d695 --procs 4 --simulate --trace-out "$trace" >/dev/null 2>&1 &&
   grep -q traceEvents "$trace" && grep -q '"parse"' "$trace" &&
   grep -q '"plan"' "$trace" && grep -q '"replay"' "$trace"; then
  echo "ok: --trace-out writes the phase spans"
else
  echo "FAIL: --trace-out did not produce a span trace" >&2
  fails=$((fails + 1))
fi
rm -f "$trace"

# --metrics / --trace-out reject a missing operand by option name.
for opt in --metrics --trace-out; do
  err=$("$cli" --soc d695 --procs 4 "$opt" 2>&1 >/dev/null)
  rc=$?
  case "$rc:$err" in
    0:*) echo "FAIL: $opt with no operand exited 0" >&2
         fails=$((fails + 1)) ;;
    *"$opt expects a value"*) echo "ok: $opt missing operand rejected by name" ;;
    *) echo "FAIL: $opt missing-operand diagnostic unclear: $err" >&2
       fails=$((fails + 1)) ;;
  esac
done

# ...and an unknown exposition format is named in the diagnostic.
err=$("$cli" --soc d695 --procs 4 --metrics bogus 2>&1 >/dev/null)
rc=$?
case "$rc:$err" in
  0:*) echo "FAIL: --metrics bogus exited 0" >&2
       fails=$((fails + 1)) ;;
  *bogus*) echo "ok: bad --metrics format named in diagnostic" ;;
  *) echo "FAIL: --metrics bogus diagnostic unclear: $err" >&2
     fails=$((fails + 1)) ;;
esac

# Error paths: bad values must fail loudly, not succeed quietly.
for bad in "--format bogus" "--soc no_such_soc" "--cpu vax" "--bogus-flag 1" "--search tabu" \
           "--restarts 3 --iters 5" "--restarts 3 --search anneal" \
           "--fail-links 0-1" "--fail-links 0:9" "--fail-procs 1" "--fail-procs 999" \
           "--fail-routers 99" "--fault-sweep 0" \
           "--fail-links 4294967296:1" "--fail-procs 4294967307" \
           "--fail-links 0:1 --fault-seed 7" \
           "--fail-links 0:1 --simulate" "--fault-sweep 2 --fail-procs 11" \
           "--fault-sweep 2 --format gantt" \
           "--fault-stream 0" "--fault-stream 2 --fault-sweep 2" \
           "--fault-stream 2 --fault-stream-file x" \
           "--fault-stream 2 --fail-procs 11" "--fault-stream 2 --simulate" \
           "--fault-stream 2 --format gantt" \
           "--fault-stream-file /nonexistent/stream.jsonl"; do
  # shellcheck disable=SC2086  # intentional word splitting of $bad
  if "$cli" --procs 2 $bad >/dev/null 2>&1; then
    echo "FAIL: '$bad' exited 0" >&2
    fails=$((fails + 1))
  else
    echo "ok: '$bad' rejected"
  fi
done

# A bad flag's diagnostic must name the problem on stderr.
err=$("$cli" --soc d695 --format bogus 2>&1 >/dev/null)
case $err in
  *bogus*) echo "ok: bad --format diagnostic names the value" ;;
  *) echo "FAIL: diagnostic does not mention the bad value: $err" >&2
     fails=$((fails + 1)) ;;
esac

# An unknown option is rejected by name — even as the last argument,
# where no value follows it.
err=$("$cli" --soc d695 --definitely-bogus 2>&1 >/dev/null)
rc=$?
case "$rc:$err" in
  0:*) echo "FAIL: unknown option --definitely-bogus exited 0" >&2
       fails=$((fails + 1)) ;;
  *definitely-bogus*) echo "ok: unknown option rejected by name" ;;
  *) echo "FAIL: diagnostic does not name the unknown option: $err" >&2
     fails=$((fails + 1)) ;;
esac

# A known option with its value missing names the option.
err=$("$cli" --soc 2>&1 >/dev/null)
case $err in
  *'--soc expects a value'*) echo "ok: missing value diagnostic names the option" ;;
  *) echo "FAIL: missing-value diagnostic unclear: $err" >&2
     fails=$((fails + 1)) ;;
esac

exit $((fails > 0))
