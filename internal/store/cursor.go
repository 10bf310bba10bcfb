package store

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"

	"k42trace/internal/event"
)

// The cursor protocol lets dashboards stream a huge agg=events listing in
// pages instead of holding one giant response: pass limit=N, read the
// X-Next-Cursor response header, and repeat with cursor=<token> until the
// header is empty. Concatenating the pages is byte-identical to the
// unpaginated listing.
//
// The token encodes a resume *position* in the merged (Time, CPU) event
// order — the last emitted event's time and CPU plus how many events with
// exactly that (Time, CPU) have been emitted — not a segment/block
// address. Positions survive maintenance: compaction conserves events and
// per-CPU order, so the same position resolves to the same next event
// even after the segments holding it were merged away. A later page also
// re-enters the query with From raised to the cursor time, so index
// pruning (and the segment cache) skips everything already emitted.

// cursor is a decoded pagination token.
type cursor struct {
	time uint64 // Time of the last emitted event
	cpu  int    // CPU of the last emitted event
	seen uint64 // events with exactly (time, cpu) already emitted
}

const cursorPrefix = "k1."

// encodeCursor renders the opaque token: "time:cpu:seen", base64url after
// the version prefix.
func encodeCursor(c cursor) string {
	var raw [64]byte // three decimal numbers and two colons: 61 at most
	b := strconv.AppendUint(raw[:0], c.time, 10)
	b = strconv.AppendInt(append(b, ':'), int64(c.cpu), 10)
	b = strconv.AppendUint(append(b, ':'), c.seen, 10)
	var tok [96]byte
	return string(base64.RawURLEncoding.AppendEncode(append(tok[:0], cursorPrefix...), b))
}

// decodeCursor parses a token; any malformation is an error (the HTTP 400
// path — cursors are opaque, clients must not synthesize them).
func decodeCursor(s string) (cursor, error) {
	var c cursor
	enc, ok := strings.CutPrefix(s, cursorPrefix)
	if !ok {
		return c, fmt.Errorf("unknown cursor version")
	}
	raw, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		return c, fmt.Errorf("undecodable cursor")
	}
	t, rest, ok1 := strings.Cut(string(raw), ":")
	cpu, seen, ok2 := strings.Cut(rest, ":")
	var err1, err2, err3 error
	c.time, err1 = strconv.ParseUint(t, 10, 64)
	c.cpu, err2 = strconv.Atoi(cpu)
	c.seen, err3 = strconv.ParseUint(seen, 10, 64)
	if !ok1 || !ok2 || err1 != nil || err2 != nil || err3 != nil || c.cpu < 0 {
		return cursor{}, fmt.Errorf("malformed cursor")
	}
	return c, nil
}

// head is the part of the merged, filtered listing that earlier pages
// already emitted, as the merge asks about it (stream.Cap.Head): events
// ordered before the position, and the first seen events at exactly the
// position's (Time, CPU).
func (c cursor) head() func(e *event.Event) bool {
	skipped := uint64(0)
	return func(e *event.Event) bool {
		if e.Time < c.time || e.Time == c.time && e.CPU < c.cpu {
			return true
		}
		if e.Time == c.time && e.CPU == c.cpu && skipped < c.seen {
			skipped++
			return true
		}
		return false
	}
}

// nextCursor computes the token for the page after this one. prev is the
// cursor this page resumed from (nil for the first page): when the page's
// tail continues the same (Time, CPU) run the previous pages were in, the
// seen count accumulates across them.
func nextCursor(page []event.Event, prev *cursor) cursor {
	last := &page[len(page)-1]
	c := cursor{time: last.Time, cpu: last.CPU}
	for i := len(page) - 1; i >= 0 && page[i].Time == last.Time && page[i].CPU == last.CPU; i-- {
		c.seen++
	}
	if prev != nil && prev.time == last.Time && prev.cpu == last.CPU {
		c.seen += prev.seen
	}
	return c
}
