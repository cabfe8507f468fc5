#!/bin/sh
# Gates search result stability: every search_quality row in a freshly
# generated BENCH_headline.json document must report the same
# best_makespan as the committed reference for the same (soc,
# power_limit, strategy, iters) key.  A row the reference lacks is
# reported, not failed.  Run after a change to the evaluation path
# (e.g. the delta-evaluation kernel) to prove the search still lands on
# identical plans — throughput work must never move quality.  Usage:
#   check_search_quality.sh <fresh-BENCH_headline.json> <reference-BENCH_headline.json>
set -eu

usage='usage: check_search_quality.sh <fresh-BENCH_headline.json> <reference-BENCH_headline.json>'
fresh=${1:?$usage}
ref=${2:?$usage}

jq -n -r --slurpfile fresh "$fresh" --slurpfile ref "$ref" \
  --arg fresh_name "$fresh" --arg ref_name "$ref" '
  def rows($doc; $name):
    $doc[0].search_quality
    | if (. // []) == [] then error("no search_quality rows in \($name)") else . end;
  def key: [.soc, .power_limit, .strategy, .iters] | tojson;
  (rows($ref; $ref_name) | map({key: key, value: .best_makespan}) | from_entries) as $want
  | [rows($fresh; $fresh_name)[]
     | $want[key] as $w
     | {moved: ($w != null and $w != .best_makespan),
        line: ("search_quality: \(.soc) power=\(.power_limit) \(.strategy) iters=\(.iters): "
               + if $w == null then "new row (no reference), best \(.best_makespan)"
                 elif $w == .best_makespan then "best \(.best_makespan) OK"
                 else "best \(.best_makespan) != reference \($w)" end)}] as $report
  | ($report[] | select(.moved | not) | .line),
    ([$report[] | select(.moved) | .line + "\n"] | add
     | if . != null then
         (. + "check_search_quality.sh: best makespans moved vs reference\n") | halt_error(1)
       else empty end)'
