#!/usr/bin/env bash
# End-to-end smoke of the live-monitoring pipeline: boot tracecolld, stream
# two concurrent tracerelay producers into it, poke every HTTP endpoint,
# SIGTERM-drain, and validate the spilled trace file with ktrace check.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
COLLD_PID=""
cleanup() {
    [ -n "$COLLD_PID" ] && kill "$COLLD_PID" 2>/dev/null || true
    rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

PORT="${LIVE_SMOKE_PORT:-17042}"
HTTP="${LIVE_SMOKE_HTTP:-17043}"
SPILL="$WORK/drained.ktr"

go build -o "$BIN" ./cmd/tracecolld ./cmd/tracerelay ./cmd/ktrace

"$BIN/tracecolld" -listen "127.0.0.1:$PORT" -http "127.0.0.1:$HTTP" -spill "$SPILL" &
COLLD_PID=$!

# Wait for the HTTP surface to come up.
up=""
for _ in $(seq 1 50); do
    if curl -fsS "http://127.0.0.1:$HTTP/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "live_smoke: collector HTTP never came up" >&2; exit 1; }
curl -fsS "http://127.0.0.1:$HTTP/healthz" | grep -q ok

# Two concurrent reliable producers.
"$BIN/tracerelay" -send "127.0.0.1:$PORT" -cpus 2 -reconnect &
P1=$!
"$BIN/tracerelay" -send "127.0.0.1:$PORT" -cpus 2 -reconnect &
P2=$!
wait "$P1" "$P2"

# Ingest is asynchronous: poll until both producers' block counters appear.
seen=0
for _ in $(seq 1 50); do
    seen=$(curl -fsS "http://127.0.0.1:$HTTP/metrics" | grep -c '^tracecolld_blocks_received_total' || true)
    [ "$seen" -ge 2 ] && break
    sleep 0.2
done
[ "$seen" -ge 2 ] || { echo "live_smoke: expected 2 producers in /metrics, saw $seen" >&2; exit 1; }
curl -fsS "http://127.0.0.1:$HTTP/metrics" | grep -q '^tracecolld_events_total'
curl -fsS "http://127.0.0.1:$HTTP/live/overview" | grep -q '"producers"'
curl -fsS "http://127.0.0.1:$HTTP/live/windows" >/dev/null

# --- Dynamic control plane: retune live producers from the collector ---
# A long-lived producer that keeps attempting MEM and SCHED events;
# narrowing the mask to CTRL+TEST (0x2001) mid-run must stop those majors
# at the source, and the producer reports the applied mask back in-band.
"$BIN/tracerelay" -send "127.0.0.1:$PORT" -cpus 2 -loadgen -duration 8s -rate 20000 -remote-control >"$WORK/loadgen1.out" &
P3=$!
sleep 1
curl -fsS -X POST "http://127.0.0.1:$HTTP/live/mask" -d mask=ctrl,test >"$WORK/mask.json"
grep -q '"desired_mask": "0x2001"' "$WORK/mask.json"
applied=""
for _ in $(seq 1 50); do
    curl -fsS "http://127.0.0.1:$HTTP/live/mask" >"$WORK/mask.json"
    if grep -q '"applied_mask": "0x2001"' "$WORK/mask.json"; then applied=1; break; fi
    sleep 0.2
done
[ -n "$applied" ] || { echo "live_smoke: producer never applied the pushed mask" >&2; exit 1; }

# A producer that connects *after* the POST gets the pending mask replayed
# on admission.
"$BIN/tracerelay" -send "127.0.0.1:$PORT" -cpus 2 -loadgen -duration 2s -rate 20000 -remote-control >"$WORK/loadgen2.out" &
P4=$!
wait "$P4"
grep -Eq 'remote-control: [0-9]+ control frames, [1-9][0-9]* mask applies' "$WORK/loadgen2.out" \
    || { echo "live_smoke: late producer never applied the replayed mask" >&2; cat "$WORK/loadgen2.out" >&2; exit 1; }

wait "$P3"
# The narrowed mask must have rejected some attempts (MEM/SCHED stopped).
attempts=$(sed -n 's/^loadgen: \([0-9]*\) logging attempts.*/\1/p' "$WORK/loadgen1.out")
logged=$(sed -n 's/^loadgen: [0-9]* logging attempts, \([0-9]*\) events logged.*/\1/p' "$WORK/loadgen1.out")
[ -n "$attempts" ] && [ -n "$logged" ] && [ "$logged" -lt "$attempts" ] \
    || { echo "live_smoke: disabled majors kept logging ($logged of $attempts)" >&2; cat "$WORK/loadgen1.out" >&2; exit 1; }
curl -fsS "http://127.0.0.1:$HTTP/metrics" >"$WORK/metrics.txt"
grep -q '^tracecolld_mask_updates_sent_total [1-9]' "$WORK/metrics.txt"

# Graceful drain: SIGTERM must leave a well-formed spill behind.
kill -TERM "$COLLD_PID"
wait "$COLLD_PID"
COLLD_PID=""

[ -s "$SPILL" ] || { echo "live_smoke: empty spill file" >&2; exit 1; }
"$BIN/ktrace" check "$SPILL"
# The mask flips must be recorded in-band in the drained spill. (Listing
# goes to a file: grep -q would SIGPIPE ktrace list and trip pipefail.)
"$BIN/ktrace" list -control "$SPILL" >"$WORK/listing.txt"
grep -q TRACE_CTRL_MASK_CHANGE "$WORK/listing.txt" \
    || { echo "live_smoke: no CtrlMaskChange markers in the spill" >&2; exit 1; }
echo "live_smoke: OK ($(wc -c <"$SPILL") byte spill validated, mask markers present)"
