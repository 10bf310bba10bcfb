package core

import (
	"k42trace/internal/clock"
	"k42trace/internal/event"
)

// DecodeStats reports what a buffer decode encountered.
type DecodeStats struct {
	// Events is the number of non-filler events decoded (anchors included).
	Events int
	// FillerEvents/FillerWords measure alignment padding in the buffer.
	FillerEvents int
	FillerWords  int
	// SkippedWords counts words skipped while resynchronizing past garbled
	// regions (headers that were not well-formed). "With high probability
	// (it is unlikely that random data will have the correct format of a
	// trace event header) errors can be detected by the post-processing
	// tools."
	SkippedWords int
}

// Garbled reports whether the decode had to skip any words.
func (d DecodeStats) Garbled() bool { return d.SkippedWords > 0 }

// Add accumulates s into d.
func (d *DecodeStats) Add(s DecodeStats) {
	d.Events += s.Events
	d.FillerEvents += s.FillerEvents
	d.FillerWords += s.FillerWords
	d.SkippedWords += s.SkippedWords
}

// Decoder is the one event-decode loop, with what it carries from one event
// to the next — the position, the clock unwrapper and whether an anchor has
// seeded it, the statistics — in a struct, so that a block can be decoded a
// stretch at a time: a consumer that takes events as it needs them (the
// merge under a whole-file read) lends the decoder a small scratch and
// calls Fill again when it has used what is there, and no slice of the
// block's events ever exists. The zero Decoder is done; Reset points it at
// a block.
//
// It walks one buffer's words. Variable-length decoding starts from word 0,
// which is always an event start because events never cross buffer
// boundaries — this is what makes buffer boundaries random-access points in
// a large trace, and what lets a decoder size a block's output before
// producing it.
//
// Full 64-bit timestamps are rebuilt from the 32-bit header stamps using
// the buffer's clock-anchor event; a buffer lacking an anchor (e.g. a
// partial flush mid-buffer never happens, but a garbled head can lose it)
// falls back to epoch zero. Malformed headers are skipped word by word
// until a plausible event start is found, and the skips are reported.
//
// Payload lifetime: every Data is a sub-slice of words, capped at its own
// length (words[a:b:b]), so the events are valid only while words is
// neither reused nor rewritten, and an append to one event's Data
// reallocates instead of writing into its neighbour.
type Decoder struct {
	cpu    int
	words  []uint64
	pos    int
	un     clock.Unwrapper
	seeded bool
	st     DecodeStats
}

// Reset starts d on a block: cpu's, whose payload is words.
func (d *Decoder) Reset(cpu int, words []uint64) { *d = Decoder{cpu: cpu, words: words} }

// Done reports whether d has walked every word of its block.
func (d *Decoder) Done() bool { return d.pos >= len(d.words) }

// Stats is what the decode has met so far: the block's, once d is done.
func (d *Decoder) Stats() DecodeStats { return d.st }

// Fill appends the block's next events to dst, in order, for as long as dst
// has room, and allocates nothing. It stops in front of the first event
// that does not fit — having walked the filler and the garble before it —
// or at the end of the block, so a dst as long as the block's events ends
// the block in one call.
func (d *Decoder) Fill(dst []event.Event) []event.Event {
	// The loop runs on locals, which stay in registers, and stores its
	// state back once: run to the end of a block it costs what it did as a
	// plain function.
	words, pos, st, un, seeded := d.words, d.pos, d.st, d.un, d.seeded
	for pos < len(words) {
		h := event.Header(words[pos])
		if !h.WellFormed() || pos+h.Len() > len(words) {
			pos++
			st.SkippedWords++
			continue
		}
		l := h.Len()
		if h.IsFiller() {
			st.FillerEvents++
			st.FillerWords += l
			pos += l
			continue
		}
		if len(dst) == cap(dst) {
			break
		}
		if h.Major() == event.MajorControl && h.Minor() == event.CtrlClockAnchor && l >= 2 {
			un.Seed(words[pos+1])
			seeded = true
		}
		if !seeded {
			un.Seed(uint64(h.Timestamp()))
			seeded = true
		}
		e := event.Event{
			Header: h,
			Time:   un.Full(h.Timestamp()),
			CPU:    d.cpu,
		}
		if l > 1 {
			e.Data = words[pos+1 : pos+l : pos+l]
		}
		dst = append(dst, e)
		st.Events++
		pos += l
	}
	d.pos, d.st, d.un, d.seeded = pos, st, un, seeded
	return dst
}

// DecodeInto is the Decoder run to the end of one block: it appends the
// events of words to dst, in order, under the Decoder's payload lifetime.
// That makes it the form for a caller that owns words for as long as it
// keeps the events (the two then travel together), or that filters or
// summarises the events before words is reused and copies out what it keeps
// (event.Clone). Anything that outlives the loop iteration that decoded it
// must own storage sized to what it keeps; DecodeBuffer is that form for a
// whole block.
//
// DecodeInto allocates nothing when dst has room for the block's events.
// When it runs out, it sizes the rest of the block and grows dst once: to
// exactly fit, or — a dst that came with capacity is a scratch kept from
// block to block — by a quarter of what it was, if that is more, so that
// blocks each a little fuller than the last do not each cost a scratch.
func DecodeInto(dst []event.Event, cpu int, words []uint64) ([]event.Event, DecodeStats) {
	d := Decoder{cpu: cpu, words: words}
	for dst = d.Fill(dst); !d.Done(); dst = d.Fill(dst) {
		grown := make([]event.Event, len(dst), max(len(dst)+CountEvents(words[d.pos:]), cap(dst)+cap(dst)/4))
		copy(grown, dst)
		dst = grown
	}
	return dst, d.st
}

// CountEvents is the sizing pass: the number of events a decode of words
// produces. It follows headers only, with the same resync rule, so a reader
// can size a whole file's answer before it decodes an event of it.
func CountEvents(words []uint64) int {
	n := 0
	for pos := 0; pos < len(words); {
		h := event.Header(words[pos])
		switch {
		case !h.WellFormed() || pos+h.Len() > len(words):
			pos++
		case h.IsFiller():
			pos += h.Len()
		default:
			n++
			pos += h.Len()
		}
	}
	return n
}

// DecodeBuffer is the owning form of DecodeInto: the returned events share
// nothing with words, which the caller may reuse at once. A block costs
// two allocations, one event slice and one payload slab, both exact (none
// for a block without events). Use it to hand events to a caller who keeps
// them.
func DecodeBuffer(cpu int, words []uint64) ([]event.Event, DecodeStats) {
	evs, st := DecodeInto(nil, cpu, words)
	event.OwnPayloads(evs)
	return evs, st
}

// DumpInfo describes one CPU's flight-recorder contents.
type DumpInfo struct {
	CPU int
	// Buffers is the number of buffer generations included (oldest still
	// resident through the current partial one).
	Buffers int
	// Stats aggregates decode statistics over those buffers.
	Stats DecodeStats
	// Anomalies counts buffers whose commit count disagreed with the data
	// present.
	Anomalies int
}

// Dump returns the flight recorder's contents for one CPU: the most recent
// activity, oldest first, exactly what the paper's debugger hook prints
// after a crash. It quiesces tracing for the duration (disable mask, drain
// in-flight loggers) and then restores the previous mask, so it can be
// called on a live system; the perturbation is the quiescent window.
func (t *Tracer) Dump(cpu int) ([]event.Event, DumpInfo) {
	old := t.Quiesce()
	defer t.mask.Store(old)
	info := DumpInfo{CPU: cpu}
	var out []event.Event
	t.Resident(cpu, func(s Sealed) {
		var st DecodeStats
		out, st = DecodeInto(out, cpu, s.Words)
		info.Buffers++
		info.Stats.Add(st)
		if s.Anomalous() {
			info.Anomalies++
		}
	})
	event.OwnPayloads(out)
	return out, info
}

// Resident hands emit each of cpu's resident buffer generations, oldest
// first: the flight recorder's contents as sealed buffers. The oldest
// resident generation is NumBufs-1 back from the current one (the slot
// about to be reused next still holds its previous contents); the current
// one is Partial and is handed over only once something is logged in it.
// A generation's Committed is its slot's commit count while the slot still
// belongs to it, and its size otherwise, so a buffer is Anomalous only when
// the commit counts show a shortfall. Words alias the live trace memory:
// call Resident with tracing quiescent, and finish with the words before
// tracing resumes.
func (t *Tracer) Resident(cpu int, emit func(Sealed)) {
	a := t.cpus[cpu]
	idx, bw := a.Index(), t.bufWords
	curGen := idx / bw
	firstGen := uint64(0)
	if curGen+1 > t.numBufs {
		firstGen = curGen + 1 - t.numBufs
	}
	for g := firstGen; g <= curGen; g++ {
		n := bw
		if g == curGen {
			if n = idx & (bw - 1); n == 0 {
				return
			}
		}
		committed := n
		if sl := int(g & (t.numBufs - 1)); a.SlotStart(sl) == g*bw {
			committed = a.SlotCommitted(sl)
		}
		emit(a.view(g*bw, n, committed, g == curGen))
	}
}
