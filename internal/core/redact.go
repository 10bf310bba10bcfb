package core

import "k42trace/internal/event"

// Redact implements the protection model sketched in the paper's future
// work: "all data is logged to a single shared buffer ... different users
// may not desire to have information about their behavior available to
// other users. To solve this, we intend to map in different buffers to
// user applications that do not have sufficient privileges to see all
// data." Redact produces a copy of a buffer in which every event whose
// major class is outside the viewer's visibility mask is replaced by a
// filler event of identical length, so:
//
//   - the buffer's alignment, random-access, and timestamp properties are
//     preserved (tools work unchanged on the redacted view);
//   - nothing about hidden events leaks except that *some* event of that
//     length occupied the slot (and fillers merge that into padding).
//
// Infrastructure events (MajorControl: anchors, fillers) are always
// visible — without the clock anchors the buffer would be undecodable.
// Garbled regions are zeroed rather than copied, since unparseable bytes
// cannot be classified.
func Redact(words []uint64, visible uint64) []uint64 {
	out := make([]uint64, len(words))
	pos := 0
	for pos < len(words) {
		h := event.Header(words[pos])
		if !h.WellFormed() || pos+h.Len() > len(words) {
			// Unclassifiable garble: scrub it.
			out[pos] = 0
			pos++
			continue
		}
		l := h.Len()
		if h.Major() == event.MajorControl || h.Major().Bit()&visible != 0 {
			copy(out[pos:pos+l], words[pos:pos+l])
		} else {
			// Same length, same timestamp, but a filler: the stream stays
			// decodable and time-monotone while the payload disappears.
			out[pos] = uint64(event.MakeHeader(h.Timestamp(), l,
				event.MajorControl, event.CtrlFiller))
		}
		pos += l
	}
	return out
}

// VisibleMask builds a visibility mask from major classes, for use with
// Redact (it is the same bit layout as the trace mask).
func VisibleMask(majors ...event.Major) uint64 {
	var m uint64
	for _, mj := range majors {
		m |= mj.Bit()
	}
	return m
}
