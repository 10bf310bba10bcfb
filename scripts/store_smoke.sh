#!/usr/bin/env bash
# End-to-end smoke of the trace store: boot tracestored, ingest spills over
# HTTP and through the watch directory, query events and aggregations, walk
# a paginated listing against the unpaginated one, prove segment-cache hits
# and admission-control 429s, compact (event-conserving), GC against a byte
# budget, validate every stored segment with ktrace check, and prove the
# tracecolld -store handoff.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
STORED_PID=""
COLLD_PID=""
cleanup() {
    [ -n "$STORED_PID" ] && kill "$STORED_PID" 2>/dev/null || true
    [ -n "$COLLD_PID" ] && kill "$COLLD_PID" 2>/dev/null || true
    rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

HTTP="${STORE_SMOKE_HTTP:-17045}"
CPORT="${STORE_SMOKE_COLLD:-17046}"
CHTTP="${STORE_SMOKE_COLLD_HTTP:-17047}"
BASE="http://127.0.0.1:$HTTP"
ROOT="$WORK/store"
SPOOL="$WORK/spool"

go build -o "$BIN" ./cmd/tracestored ./cmd/tracecolld ./cmd/tracerelay ./cmd/ktrace ./cmd/sdet

# A deterministic spill with enough blocks to split into many segments.
"$BIN/sdet" -cpus 4 -scripts 12 -cmds 12 -sample 10000 -o "$WORK/spill.ktr" >/dev/null
SZ=$(wc -c <"$WORK/spill.ktr")
# Byte budget for the GC leg: three uploads overflow it, two fit.
BUDGET=$((SZ * 5 / 2))

mkdir -p "$SPOOL/globex"
# -seg-span 1: every block lands in its own time window, so one upload
# splits into many segments and compaction has real work to do. The scan
# pool is one slot with no queue, so any overlapping queries surface 429s
# (the sequential legs below never overlap).
"$BIN/tracestored" -root "$ROOT" -http "127.0.0.1:$HTTP" \
    -watch "$SPOOL" -watch-every 200ms -seg-span 1 -retain-bytes "$BUDGET" \
    -cache-bytes $((64 * 1024 * 1024)) -query-concurrency 1 -tenant-queries 1 -tenant-queue 0 &
STORED_PID=$!

up=""
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "store_smoke: tracestored HTTP never came up" >&2; exit 1; }
curl -fsS "$BASE/healthz" | grep -q '"ok":true'

# --- HTTP ingest -------------------------------------------------------
curl -fsS -X POST --data-binary "@$WORK/spill.ktr" "$BASE/ingest?tenant=acme" >"$WORK/ingest1.json"
EVENTS=$(sed -n 's/.*"events":\([0-9]*\).*/\1/p' "$WORK/ingest1.json")
[ -n "$EVENTS" ] && [ "$EVENTS" -gt 0 ] || { echo "store_smoke: ingest reported no events" >&2; exit 1; }

segs() { # segs <tenant>: segment count from /tenants
    curl -fsS "$BASE/tenants" | tr '}' '\n' | grep "\"name\":\"$1\"" \
        | sed -n 's/.*"segments":\([0-9]*\).*/\1/p'
}
qev() { # qev <query-string>: X-Events of a query
    curl -fsS -D "$WORK/hdr" "$BASE/query?$1" -o "$WORK/body" \
        && sed -n 's/^X-Events: *\([0-9]*\).*/\1/p' "$WORK/hdr" | tr -d '\r'
}

SEGS1=$(segs acme)
[ "$SEGS1" -ge 3 ] || { echo "store_smoke: expected a multi-segment split, got $SEGS1" >&2; exit 1; }

# --- Queries -----------------------------------------------------------
got=$(qev "tenant=acme")
[ "$got" = "$EVENTS" ] || { echo "store_smoke: full query saw $got events, ingest stored $EVENTS" >&2; exit 1; }
# Predicates and aggregations answer from the same scans.
sched=$(qev "tenant=acme&major=sched")
[ -n "$sched" ] && [ "$sched" -gt 0 ] && [ "$sched" -lt "$EVENTS" ] \
    || { echo "store_smoke: sched-filtered query returned $sched of $EVENTS" >&2; exit 1; }
curl -fsS "$BASE/query?tenant=acme&agg=overview" >"$WORK/overview.txt"
grep -q 'pid' "$WORK/overview.txt" \
    || { echo "store_smoke: overview aggregation empty" >&2; exit 1; }
curl -fsS "$BASE/query?tenant=acme&agg=lockstat" >/dev/null
# Error surface: bad params 400 (malformed cursors included), unknown
# tenant 404.
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/query?tenant=acme&from=x")
[ "$code" = 400 ] || { echo "store_smoke: bad query returned $code, want 400" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/query?tenant=acme&cursor=junk")
[ "$code" = 400 ] || { echo "store_smoke: bad cursor returned $code, want 400" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/query?tenant=nope")
[ "$code" = 404 ] || { echo "store_smoke: unknown tenant returned $code, want 404" >&2; exit 1; }

# --- Segment cache: a repeated query is served from cached partials ----
# (metrics are fetched to a file first: `curl -fsS | grep -q` SIGPIPEs
# under pipefail when grep exits on an early match.)
qev "tenant=acme" >/dev/null
curl -fsS "$BASE/metrics" >"$WORK/m-cache.txt"
grep -q '^tracestored_cache_hits_total{tenant="acme"} [1-9]' "$WORK/m-cache.txt" \
    || { echo "store_smoke: repeated query produced no cache hits" >&2; exit 1; }

# --- Cursor pagination: walking pages reproduces the full listing ------
curl -fsS "$BASE/query?tenant=acme" -o "$WORK/full.txt"
LIM=$((EVENTS / 7 + 1))
: >"$WORK/paged.txt"
CURSOR=""
walked=""
for _ in $(seq 1 20); do
    Q="tenant=acme&limit=$LIM"
    [ -n "$CURSOR" ] && Q="$Q&cursor=$CURSOR"
    curl -fsS -D "$WORK/hdr" "$BASE/query?$Q" >>"$WORK/paged.txt"
    CURSOR=$(sed -n 's/^X-Next-Cursor: *//p' "$WORK/hdr" | tr -d '\r')
    [ -z "$CURSOR" ] && { walked=1; break; }
done
[ -n "$walked" ] || { echo "store_smoke: cursor walk never terminated" >&2; exit 1; }
cmp -s "$WORK/full.txt" "$WORK/paged.txt" \
    || { echo "store_smoke: paginated walk differs from the unpaginated listing" >&2; exit 1; }

# --- Admission control: overlapping full scans are refused with 429 ----
# The pool is one slot with no queue; fire parallel brute-force scans
# until one lands while another holds the slot (retried: tiny scans can
# slip through sequentially).
saw429=""
for _ in $(seq 1 5); do
    rm -f "$WORK"/code.*
    CURLS=""
    for i in 1 2 3 4 5 6 7 8; do
        curl -s -o /dev/null -w '%{http_code}' \
            "$BASE/query?tenant=acme&noprune=1" >"$WORK/code.$i" &
        CURLS="$CURLS $!"
    done
    # Wait only on the curls: a bare `wait` would block on the daemon too.
    wait $CURLS
    if grep -lq '^429$' "$WORK"/code.* 2>/dev/null; then saw429=1; break; fi
done
[ -n "$saw429" ] || { echo "store_smoke: parallel queries never drew a 429" >&2; exit 1; }
grep -lq '^200$' "$WORK"/code.* >/dev/null \
    || { echo "store_smoke: overload refused every query; none was admitted" >&2; exit 1; }
curl -fsS "$BASE/metrics" >"$WORK/m-adm.txt"
grep -q '^tracestored_admission_rejected_total{tenant="acme"} [1-9]' "$WORK/m-adm.txt" \
    || { echo "store_smoke: metrics did not count the 429s" >&2; exit 1; }

# --- Compaction: segments shrink, events are conserved -----------------
curl -fsS -X POST "$BASE/admin/compact?tenant=acme" >"$WORK/compact.json"
SEGS2=$(segs acme)
[ "$SEGS2" -lt "$SEGS1" ] || { echo "store_smoke: compaction left $SEGS2 of $SEGS1 segments" >&2; exit 1; }
got=$(qev "tenant=acme")
[ "$got" = "$EVENTS" ] || { echo "store_smoke: compaction changed events $EVENTS -> $got" >&2; exit 1; }
# Every stored segment, compacted or not, is a well-formed trace file.
for f in "$ROOT"/acme/seg-*.ktr; do
    "$BIN/ktrace" check "$f" >/dev/null || { echo "store_smoke: ktrace check failed on $f" >&2; exit 1; }
done

# --- Watch-directory ingest -------------------------------------------
cp "$WORK/spill.ktr" "$SPOOL/globex/run1.ktr"
stored=""
for _ in $(seq 1 50); do
    [ -f "$SPOOL/globex/run1.ktr.stored" ] && { stored=1; break; }
    sleep 0.2
done
[ -n "$stored" ] || { echo "store_smoke: watched spill never ingested" >&2; exit 1; }
got=$(qev "tenant=globex")
[ "$got" = "$EVENTS" ] || { echo "store_smoke: watch ingest stored $got of $EVENTS events" >&2; exit 1; }

# --- GC: byte budget drops whole oldest segments -----------------------
curl -fsS -X POST --data-binary "@$WORK/spill.ktr" "$BASE/ingest?tenant=acme" >/dev/null
curl -fsS -X POST --data-binary "@$WORK/spill.ktr" "$BASE/ingest?tenant=acme" >/dev/null
curl -fsS -X POST "$BASE/admin/gc?tenant=acme" >"$WORK/gc.json"
grep -q '"segments":[1-9]' "$WORK/gc.json" || { echo "store_smoke: gc freed nothing" >&2; exit 1; }
got=$(qev "tenant=acme")
[ "$got" -gt 0 ] && [ "$got" -lt $((EVENTS * 3)) ] && [ $((got % EVENTS)) -eq 0 ] \
    || { echo "store_smoke: post-gc events $got not a whole number of uploads ($EVENTS)" >&2; exit 1; }

curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"
grep -q '^tracestored_ingests_total{tenant="acme"}' "$WORK/metrics.txt"
grep -q '^tracestored_gc_segments_total{tenant="acme"} [1-9]' "$WORK/metrics.txt"
grep -q '^tracestored_query_seconds_count [1-9]' "$WORK/metrics.txt"

# --- Collector handoff: tracecolld -store uploads its drained spill ----
"$BIN/tracecolld" -listen "127.0.0.1:$CPORT" -http "127.0.0.1:$CHTTP" \
    -spill "$WORK/colld.ktr" -store "$BASE" -store-tenant colld >"$WORK/colld.out" &
COLLD_PID=$!
for _ in $(seq 1 50); do
    if curl -fsS "http://127.0.0.1:$CHTTP/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
"$BIN/tracerelay" -send "127.0.0.1:$CPORT" -cpus 2 -reconnect
kill -TERM "$COLLD_PID"
wait "$COLLD_PID"
COLLD_PID=""
grep -q 'spill uploaded' "$WORK/colld.out" \
    || { echo "store_smoke: collector never handed its spill to the store" >&2; cat "$WORK/colld.out" >&2; exit 1; }
got=$(qev "tenant=colld")
[ -n "$got" ] && [ "$got" -gt 0 ] || { echo "store_smoke: collector tenant holds no events" >&2; exit 1; }

# --- Graceful shutdown -------------------------------------------------
kill -TERM "$STORED_PID"
wait "$STORED_PID"
STORED_PID=""

echo "store_smoke: OK ($EVENTS events/upload, $SEGS1 -> $SEGS2 segments compacted, pagination + cache + 429 + gc + handoff verified)"
