#!/bin/sh
# Runs the gated benches of a build tree and assembles their JSON rows
# (the lines starting {"section", written by report::JsonWriter) into one
# BENCH_headline.json document on stdout: one array per section, under
# a header naming the revision and the machine.  Fails if a bench exits
# non-zero (each bench owns its gates) or a section has no rows.
# Usage:
#   bench_headline.sh <build-dir> [git-rev] > BENCH_headline.json
set -eu

build=${1:?usage: bench_headline.sh <build-dir> [git-rev]}
rev=${2:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}

rows=$(mktemp)
out=$(mktemp)
trap 'rm -f "$rows" "$out"' EXIT
for bench in headline des_replay multistart_perf search_quality fault_sweep \
    fault_stream delta_eval serve_fleet; do
  if ! "$build/bench/bench_$bench" > "$out"; then
    echo "bench_headline.sh: bench_$bench failed" >&2
    exit 1
  fi
  grep '^{"section"' "$out" >> "$rows" || true
done

cache() { sed -n "s/^$1:[A-Z]*=//p" "$build/CMakeCache.txt"; }
machine=$(jq -n --argjson nproc "$(nproc)" \
  --arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
  --arg compiler "$("$(cache CMAKE_CXX_COMPILER)" --version | head -n 1)" \
  --arg build_type "$(cache CMAKE_BUILD_TYPE)" \
  '{nproc: $nproc, cpu: $cpu, compiler: $compiler, build_type: $build_type}')

# One row per line, keys in the order the bench wrote them.
jq -n -r --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --arg rev "$rev" \
  --argjson machine "$machine" '
  def line: "{" + (to_entries | map("\(.key | tojson): \(.value | tojson)") | join(", ")) + "}";
  ["claims", "des_replay", "planner_perf", "metrics_overhead", "search_quality",
   "fault_sweep", "fault_stream", "delta_eval", "serve"] as $sections
  | (reduce inputs as $r ({}; .[$r.section] += [$r | del(.section)])) as $rows
  | [$sections[] | select($rows[.] == null)] as $empty
  | if $empty != [] then error("no rows for section(s) \($empty | join(", "))") else . end
  | ["  \"bench\": \"headline\"", "  \"date\": \($date | tojson)", "  \"rev\": \($rev | tojson)",
     "  \"machine\": \($machine | line)"]
    + [$sections[] | "  \(tojson): [\n" + ($rows[.] | map("    " + line) | join(",\n")) + "\n  ]"]
  | "{\n" + join(",\n") + "\n}"' "$rows"
