#!/usr/bin/env bash
# End-to-end smoke of the differential analyzer and the HTML timeline
# export: generate a coarse and a tuned run of the identical SDET workload
# (same seed, same samplers, same mid-run mask changes), then prove that
#   1. ktrace diff aligns them on the planted mask epochs and surfaces the
#      coarse kernel's lock regression at the top of the report,
#   2. diffing a trace against itself is exactly zero (gated in the
#      strictest possible way: -max-divergence 0 must pass),
#   3. the -max-divergence CI gate exits 3 on the real regression,
#   4. the JSON report parses and agrees with the text on the headline,
#   5. the HTML timeline exports (kmon single-run and diff stacked)
#      are byte-identical across renders and reference no network.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
cleanup() { rm -rf "$BIN" "$WORK"; }
trap cleanup EXIT

go build -o "$BIN" ./cmd/sdet ./cmd/ktrace

# The canonical fixture recipe (testdata/corpus coarse/tuned pair): 8 CPUs,
# both samplers, timer IRQs, and two mid-run mask changes that plant
# TRACE_CTRL_MASK_CHANGE epochs at the same virtual instants in both runs.
GEN="-cpus 8 -scripts 4 -cmds 6 -seed 11 -sample 15000 -irq 50000
     -mask-at 800000=ctrl,mem,proc,sched,lock,io,ipc,exception,user,syscall
     -mask-at 1400000=all"
# shellcheck disable=SC2086
"$BIN/sdet" $GEN -config coarse -o "$WORK/coarse.ktr" >/dev/null
# shellcheck disable=SC2086
"$BIN/sdet" $GEN -config tuned -o "$WORK/tuned.ktr" >/dev/null

# --- 1. the diff surfaces the planted regression -----------------------
"$BIN/ktrace" diff "$WORK/coarse.ktr" "$WORK/tuned.ktr" >"$WORK/report.txt"
grep -q '^  alignment mask-epochs' "$WORK/report.txt" \
    || { echo "diff_smoke: runs not aligned on mask epochs" >&2; exit 1; }
# lockwait must head the mode table (biggest |delta%|) and must drop B-A.
grep -q '^lockwait .*-' "$WORK/report.txt" \
    || { echo "diff_smoke: lockwait regression not surfaced" >&2; exit 1; }
DIV=$(sed -n 's/^divergence \([0-9.]*\).*/\1/p' "$WORK/report.txt")
[ -n "$DIV" ] && awk "BEGIN{exit !($DIV > 0)}" \
    || { echo "diff_smoke: divergence not positive ($DIV)" >&2; exit 1; }

# --- 2. self-diff is exactly zero, gated at threshold zero -------------
"$BIN/ktrace" diff -max-divergence 0 "$WORK/coarse.ktr" "$WORK/coarse.ktr" >"$WORK/self.txt"
grep -q '^divergence 0\.000000' "$WORK/self.txt" \
    || { echo "diff_smoke: self-diff divergence nonzero" >&2; exit 1; }

# --- 3. the CI gate trips on the real regression -----------------------
set +e
"$BIN/ktrace" diff -max-divergence 0.01 "$WORK/coarse.ktr" "$WORK/tuned.ktr" >/dev/null 2>&1
RC=$?
set -e
[ "$RC" -eq 3 ] || { echo "diff_smoke: threshold gate exited $RC, want 3" >&2; exit 1; }

# --- 4. JSON agrees with the text report -------------------------------
"$BIN/ktrace" diff -json "$WORK/coarse.ktr" "$WORK/tuned.ktr" >"$WORK/report.json"
grep -q '"kind": "mask-epochs"' "$WORK/report.json" \
    || { echo "diff_smoke: JSON missing alignment kind" >&2; exit 1; }
grep -q '"mode": "lockwait"' "$WORK/report.json" \
    || { echo "diff_smoke: JSON missing lockwait row" >&2; exit 1; }

# --- 5. HTML exports: deterministic, self-contained, epoch-aware -------
"$BIN/ktrace" diff -html "$WORK/stack1.html" "$WORK/coarse.ktr" "$WORK/tuned.ktr" >/dev/null 2>&1
"$BIN/ktrace" diff -html "$WORK/stack2.html" "$WORK/coarse.ktr" "$WORK/tuned.ktr" >/dev/null 2>&1
cmp -s "$WORK/stack1.html" "$WORK/stack2.html" \
    || { echo "diff_smoke: diff HTML not deterministic" >&2; exit 1; }
"$BIN/ktrace" kmon -html "$WORK/mon1.html" -svg "$WORK/mon.svg" "$WORK/coarse.ktr" >/dev/null
"$BIN/ktrace" kmon -html "$WORK/mon2.html" "$WORK/coarse.ktr" >/dev/null
cmp -s "$WORK/mon1.html" "$WORK/mon2.html" \
    || { echo "diff_smoke: kmon HTML not deterministic" >&2; exit 1; }
for f in "$WORK/stack1.html" "$WORK/mon1.html"; do
    if grep -qE 'https?://' "$f"; then
        echo "diff_smoke: $f references the network" >&2; exit 1
    fi
    grep -q 'maskEpochs' "$f" \
        || { echo "diff_smoke: $f missing mask-epoch data" >&2; exit 1; }
done
# The satellite: kmon's SVG draws the mask epochs as dashed lines too.
grep -q 'stroke-dasharray' "$WORK/mon.svg" \
    || { echo "diff_smoke: SVG missing epoch lines" >&2; exit 1; }

echo "diff_smoke: OK (divergence $DIV, gate exit 3, HTML deterministic + offline)"
