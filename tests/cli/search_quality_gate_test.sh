#!/bin/sh
# Drives scripts/check_search_quality.sh, the gate CI runs on each fresh
# BENCH_headline.json: a document passes against itself, and fails when
# one best_makespan moves (naming the row), when it lacks a reference
# row (naming the row), or when it has no search_quality section.  Registered with ctest; usage:
#   search_quality_gate_test.sh <check_search_quality.sh> <BENCH_headline.json>
set -u

gate=${1:?usage: search_quality_gate_test.sh <check_search_quality.sh> <BENCH_headline.json>}
doc=${2:?usage: search_quality_gate_test.sh <check_search_quality.sh> <BENCH_headline.json>}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fails=0

pass() { echo "ok: $1"; }
fail() {
  echo "FAIL: $1" >&2
  sed 's/^/  | /' "$tmp/out" >&2
  fails=$((fails + 1))
}

if sh "$gate" "$doc" "$doc" > "$tmp/out" 2>&1; then
  pass "the committed document passes against itself"
else
  fail "the committed document failed against itself"
fi

jq '.search_quality[0].best_makespan += 1' "$doc" > "$tmp/moved.json" || exit 1
row=$(jq -r '.search_quality[0] | "\(.soc) power=\(.power_limit) \(.strategy) iters=\(.iters)"' \
  "$doc") || exit 1
if sh "$gate" "$tmp/moved.json" "$doc" > "$tmp/out" 2>&1; then
  fail "a moved best_makespan passed"
elif grep -qF "$row: best " "$tmp/out" && grep -qF "!= reference" "$tmp/out"; then
  pass "a moved best_makespan fails, naming $row"
else
  fail "a moved best_makespan failed without naming $row"
fi

jq 'del(.search_quality[1:])' "$doc" > "$tmp/short.json" || exit 1
lost=$(jq -r '.search_quality[1] | "\(.soc) power=\(.power_limit) \(.strategy) iters=\(.iters)"' \
  "$doc") || exit 1
if sh "$gate" "$tmp/short.json" "$doc" > "$tmp/out" 2>&1; then
  fail "a document missing reference rows passed"
elif grep -qF "$lost: missing from" "$tmp/out"; then
  pass "a document missing reference rows fails, naming $lost"
else
  fail "a document missing reference rows failed without naming $lost"
fi

jq 'del(.search_quality)' "$doc" > "$tmp/none.json" || exit 1
if sh "$gate" "$tmp/none.json" "$doc" > "$tmp/out" 2>&1; then
  fail "a document without search_quality passed"
elif grep -qF "no search_quality rows" "$tmp/out"; then
  pass "a document without search_quality fails"
else
  fail "a document without search_quality failed without saying so"
fi

[ "$fails" -eq 0 ]
