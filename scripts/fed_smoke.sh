#!/usr/bin/env bash
# End-to-end smoke of the collector federation: boot traceaggd, federate
# three tracecolld shards under it, stream ring-resolved tracerelay
# producers through the tree, fan a mask down from the aggregator,
# SIGKILL one shard and watch the ring expire it while producers rehash,
# then drain and validate every spill with ktrace check.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
AGG_PID=""
C0_PID=""
C1_PID=""
C2_PID=""
cleanup() {
    for p in "$AGG_PID" "$C0_PID" "$C1_PID" "$C2_PID"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

AGG_PORT="${FED_SMOKE_PORT:-18052}"
AGG_HTTP="${FED_SMOKE_HTTP:-18053}"
AGG="http://127.0.0.1:$AGG_HTTP"
FLEET="$WORK/fleet.ktr"

go build -o "$BIN" ./cmd/traceaggd ./cmd/tracecolld ./cmd/tracerelay ./cmd/ktrace

"$BIN/traceaggd" -listen "127.0.0.1:$AGG_PORT" -http "127.0.0.1:$AGG_HTTP" \
    -spill "$FLEET" -member-ttl 2s &
AGG_PID=$!

up=""
for _ in $(seq 1 50); do
    if curl -fsS "$AGG/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "fed_smoke: aggregator HTTP never came up" >&2; exit 1; }

# Three shards, each heartbeating fast so the smoke stays short.
start_shard() { # name relay_port http_port
    "$BIN/tracecolld" -listen "127.0.0.1:$2" -http "127.0.0.1:$3" \
        -spill "$WORK/$1.ktr" -up "127.0.0.1:$AGG_PORT" -agg-http "$AGG" \
        -name "$1" -heartbeat 250ms &
}
start_shard c0 18042 18043; C0_PID=$!
start_shard c1 18044 18045; C1_PID=$!
start_shard c2 18046 18047; C2_PID=$!

# The ring must converge to all three members before producers resolve.
joined=0
for _ in $(seq 1 50); do
    joined=$(curl -fsS "$AGG/fed/ring" | grep -co '"127\.0\.0\.1:1804[0-9]"' || true)
    [ "$joined" -eq 3 ] && break
    sleep 0.2
done
[ "$joined" -eq 3 ] || { echo "fed_smoke: ring never reached 3 members (saw $joined)" >&2; exit 1; }

# Six finite producers, each resolving its owner shard through the ring.
PPIDS=()
for i in 0 1 2 3 4 5; do
    "$BIN/tracerelay" -fed "$AGG" -key "web-$i" -cpus 2 >"$WORK/web-$i.out" &
    PPIDS+=($!)
done
wait "${PPIDS[@]}"
grep -q '^reliable: [1-9]' "$WORK/web-0.out" \
    || { echo "fed_smoke: producer relayed no blocks" >&2; cat "$WORK/web-0.out" >&2; exit 1; }

# Heartbeats carry shard counters upward; the federated member view must
# show ingested blocks.
fed=""
for _ in $(seq 1 50); do
    if curl -fsS "$AGG/fed/overview" | grep -q '"blocks": [1-9]'; then fed=1; break; fi
    sleep 0.2
done
[ -n "$fed" ] || { echo "fed_smoke: no shard reported blocks in /fed/overview" >&2; exit 1; }
# The shards' uplinks are the aggregator's producers: the mirror must be live.
curl -fsS "$AGG/metrics" | grep -q '^tracecolld_blocks_received_total' \
    || { echo "fed_smoke: aggregator mirror saw no uplink blocks" >&2; exit 1; }

# --- Mask fan-down through the whole tree ---
# A long-lived producer somewhere in the fleet; narrowing the mask at the
# AGGREGATOR must reach it two hops down and stop the disabled majors.
"$BIN/tracerelay" -fed "$AGG" -key ctl-1 -cpus 2 -loadgen -duration 8s -rate 20000 \
    -remote-control -attempts 40 >"$WORK/loadgen.out" &
P_CTL=$!
sleep 1
curl -fsS -X POST "$AGG/live/mask" -d mask=ctrl,test >"$WORK/mask.json"
grep -q '"desired_mask": "0x2001"' "$WORK/mask.json"
applied=""
for _ in $(seq 1 50); do
    for h in 18043 18045 18047; do
        if curl -fsS "http://127.0.0.1:$h/live/mask" 2>/dev/null | grep -q '"applied_mask": "0x2001"'; then
            applied=1
        fi
    done
    [ -n "$applied" ] && break
    sleep 0.2
done
[ -n "$applied" ] || { echo "fed_smoke: no shard saw the fanned-down mask applied" >&2; exit 1; }

# --- Member loss: SIGKILL a shard, the ring must expire it ---
kill -9 "$C2_PID"
wait "$C2_PID" 2>/dev/null || true
C2_PID=""
gone=""
for _ in $(seq 1 50); do
    if ! curl -fsS "$AGG/fed/ring" | grep -q '"127.0.0.1:18046"'; then gone=1; break; fi
    sleep 0.2
done
[ -n "$gone" ] || { echo "fed_smoke: killed shard never expired off the ring" >&2; exit 1; }
curl -fsS "$AGG/fed/members" | grep -q '"state": "expired"' \
    || { echo "fed_smoke: killed shard not marked expired" >&2; exit 1; }

# A producer arriving after the loss resolves onto a survivor and succeeds.
"$BIN/tracerelay" -fed "$AGG" -key web-9 -cpus 2 >"$WORK/web-9.out"
grep -q '^reliable: [1-9].* 0 dropped$' "$WORK/web-9.out" \
    || { echo "fed_smoke: post-kill producer lost blocks" >&2; cat "$WORK/web-9.out" >&2; exit 1; }

wait "$P_CTL"
# The narrowed mask must have rejected some logging attempts at the source.
attempts=$(sed -n 's/^loadgen: \([0-9]*\) logging attempts.*/\1/p' "$WORK/loadgen.out")
logged=$(sed -n 's/^loadgen: [0-9]* logging attempts, \([0-9]*\) events logged.*/\1/p' "$WORK/loadgen.out")
[ -n "$attempts" ] && [ -n "$logged" ] && [ "$logged" -lt "$attempts" ] \
    || { echo "fed_smoke: fanned-down mask never throttled the producer" >&2; cat "$WORK/loadgen.out" >&2; exit 1; }

# --- Drain: SIGTERM the survivors, then the aggregator ---
kill -TERM "$C0_PID" "$C1_PID"
wait "$C0_PID" "$C1_PID"
C0_PID=""; C1_PID=""
# The leaving heartbeat carries each shard's final overview; the merged
# federated overview must contain per-process rows.
curl -fsS "$AGG/fed/overview" >"$WORK/fed_overview.json"
grep -q '"Pid"' "$WORK/fed_overview.json" \
    || { echo "fed_smoke: merged federated overview is empty" >&2; exit 1; }
kill -TERM "$AGG_PID"
wait "$AGG_PID"
AGG_PID=""

# Survivor spills and the aggregator's mirror spill must be well-formed.
# (c2 died by SIGKILL, so its spill may end mid-block; a shard that never
# owned a key leaves an empty spill — both are skipped, not failures.)
for s in c0 c1; do
    if [ -s "$WORK/$s.ktr" ]; then "$BIN/ktrace" check "$WORK/$s.ktr"; fi
done
[ -s "$FLEET" ] || { echo "fed_smoke: empty fleet spill" >&2; exit 1; }
"$BIN/ktrace" check "$FLEET"
# The fan-down must be recorded in-band all the way up in the mirror.
"$BIN/ktrace" list -control "$FLEET" >"$WORK/listing.txt"
grep -q TRACE_CTRL_MASK_CHANGE "$WORK/listing.txt" \
    || { echo "fed_smoke: no CtrlMaskChange markers in the fleet spill" >&2; exit 1; }
echo "fed_smoke: OK (3-shard federation, mask fan-down, shard loss + rehash, $(wc -c <"$FLEET") byte fleet spill validated)"
