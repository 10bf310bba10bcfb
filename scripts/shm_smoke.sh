#!/usr/bin/env bash
# End-to-end smoke of the shared-memory cross-process path: boot ktraced
# on a tmpfs segment, attach real shmlog client processes, SIGKILL one
# with an uncommitted reservation mid-run, inspect the live segment with
# ktrace check -shm, SIGTERM-drain, and assert exact loss accounting on the
# spill with ktrace check -salvage: one anomalous block, the dead
# reservation's words skipped, and nothing else lost.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
SEG=""
KTRACED_PID=""
cleanup() {
    [ -n "$KTRACED_PID" ] && kill "$KTRACED_PID" 2>/dev/null || true
    [ -n "$SEG" ] && rm -f "$SEG"
    rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

# tmpfs where available (the deployment the paper assumes); plain disk
# works too — mmap is mmap.
if [ -d /dev/shm ] && [ -w /dev/shm ]; then
    SEG="/dev/shm/k42smoke.$$.seg"
else
    SEG="$WORK/k42smoke.seg"
fi
SPILL="$WORK/drained.ktr"
PAYLOAD=3
HOLE=$((PAYLOAD + 1)) # header word + payload

go build -o "$BIN" ./cmd/ktraced ./cmd/shmlog ./cmd/ktrace

"$BIN/ktraced" -seg "$SEG" -cpus 2 -spill "$SPILL" >"$WORK/ktraced.out" 2>&1 &
KTRACED_PID=$!

# Wait until the daemon publishes the segment as ready.
up=""
for _ in $(seq 1 50); do
    if "$BIN/ktrace" check -shm "$SEG" 2>/dev/null | grep -q 'state: ready'; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "shm_smoke: segment never became ready" >&2; cat "$WORK/ktraced.out" >&2; exit 1; }

# Client 1: a healthy producer hammering both CPU slots.
"$BIN/shmlog" -seg "$SEG" -n 20000 >"$WORK/client1.out" &
C1=$!

# Client 2: reserves $PAYLOAD payload words, never commits, and is
# SIGKILLed — a real process dying with space reserved, the §3.1 failure.
"$BIN/shmlog" -seg "$SEG" -hang -payload "$PAYLOAD" >"$WORK/hang.out" &
C2=$!
hung=""
for _ in $(seq 1 50); do
    if grep -q "hung with $HOLE uncommitted words" "$WORK/hang.out" 2>/dev/null; then hung=1; break; fi
    sleep 0.2
done
[ -n "$hung" ] || { echo "shm_smoke: hang client never reserved" >&2; cat "$WORK/hang.out" >&2; exit 1; }

# Live inspection while the hang client holds its reservation: it must
# show up in the client table with its OS pid and a raised in-flight
# count. (The healthy client may already have finished and detached —
# its slot is recycled, so only the hung one is guaranteed present.)
"$BIN/ktrace" check -shm "$SEG" >"$WORK/inspect_live.txt"
grep -Eq "slot [0-9]+: pid $C2," "$WORK/inspect_live.txt" \
    || { echo "shm_smoke: live inspect missed the hung client" >&2; cat "$WORK/inspect_live.txt" >&2; exit 1; }
grep -Eq 'clients: [0-9]+ attached' "$WORK/inspect_live.txt" \
    || { echo "shm_smoke: live inspect shows no client table" >&2; cat "$WORK/inspect_live.txt" >&2; exit 1; }

kill -9 "$C2"
wait "$C2" 2>/dev/null || true

# The daemon writes the dead client off by pid liveness: poll the live
# segment until only the healthy client (or none, if it finished) holds a
# slot.
reaped=""
for _ in $(seq 1 50); do
    "$BIN/ktrace" check -shm "$SEG" >"$WORK/inspect_reap.txt"
    if ! grep -Eq "pid $C2," "$WORK/inspect_reap.txt"; then reaped=1; break; fi
    sleep 0.2
done
[ -n "$reaped" ] || { echo "shm_smoke: dead client never reaped" >&2; cat "$WORK/inspect_reap.txt" >&2; exit 1; }

wait "$C1"
grep -q 'logged 20000 events' "$WORK/client1.out" \
    || { echo "shm_smoke: healthy client lost events" >&2; cat "$WORK/client1.out" >&2; exit 1; }

# Client 3 attaches *after* the kill: the ring must still flow.
"$BIN/shmlog" -seg "$SEG" -workload -cpu 1 -pid 202 -n 500 >"$WORK/client3.out"
grep -q 'logged 1700 events' "$WORK/client3.out" \
    || { echo "shm_smoke: post-kill workload client lost events" >&2; cat "$WORK/client3.out" >&2; exit 1; }

# Graceful drain. ktraced exits 1 on purpose: the kill left exactly one
# anomalous block and the daemon reports it.
kill -TERM "$KTRACED_PID"
rc=0; wait "$KTRACED_PID" || rc=$?
KTRACED_PID=""
[ "$rc" -eq 1 ] || { echo "shm_smoke: ktraced exit $rc, want 1 (anomaly flagged)" >&2; cat "$WORK/ktraced.out" >&2; exit 1; }
grep -q '(1 anomalous)' "$WORK/ktraced.out" \
    || { echo "shm_smoke: want exactly 1 anomalous block" >&2; cat "$WORK/ktraced.out" >&2; exit 1; }
grep -q '1 dead clients reaped' "$WORK/ktraced.out" \
    || { echo "shm_smoke: want exactly 1 reaped client" >&2; cat "$WORK/ktraced.out" >&2; exit 1; }

# Exact loss accounting on the spill: the salvager must quarantine
# nothing, lose no blocks, and skip exactly the dead reservation's words.
[ -s "$SPILL" ] || { echo "shm_smoke: empty spill file" >&2; exit 1; }
rc=0; "$BIN/ktrace" check -salvage "$SPILL" >"$WORK/salvage.txt" || rc=$?
[ "$rc" -eq 1 ] || { echo "shm_smoke: salvage exit $rc, want 1 (loss detected)" >&2; cat "$WORK/salvage.txt" >&2; exit 1; }
grep -Eq 'blocks: [0-9]+ good, 0 quarantined, 0 duplicates dropped, 0 reordered, 0 lost' "$WORK/salvage.txt" \
    || { echo "shm_smoke: salvage lost whole blocks on a kill-only trace" >&2; cat "$WORK/salvage.txt" >&2; exit 1; }
grep -q "$HOLE garbled words skipped" "$WORK/salvage.txt" \
    || { echo "shm_smoke: want exactly $HOLE skipped words" >&2; cat "$WORK/salvage.txt" >&2; exit 1; }

echo "shm_smoke: OK ($(wc -c <"$SPILL") byte spill, 1 anomalous block, exactly $HOLE words lost)"
