// Package event defines the on-wire encoding of trace events: the 64-bit
// header word layout used by K42 (32-bit timestamp, 10-bit length, 6-bit
// major ID, 16-bit minor data), the major-ID space, and the self-describing
// event registry that lets generic tools decode and print any event.
//
// A trace event is a sequence of 64-bit words. The first word is the header;
// it is followed by length-1 payload words. Only 64-bit words are ever
// logged; sub-word quantities are packed with the helpers in this package
// (the analogue of K42's packing macros).
package event

import "fmt"

// Header field widths and derived limits. The layout, from most to least
// significant bit of the 64-bit header word, is:
//
//	[63:32] timestamp (32 bits)
//	[31:22] length in 64-bit words, including the header (10 bits)
//	[21:16] major ID (6 bits)
//	[15:0]  minor / major-class-defined data (16 bits)
const (
	TimestampBits = 32
	LengthBits    = 10
	MajorBits     = 6
	MinorBits     = 16

	// MaxWords is the largest encodable event length (header included).
	MaxWords = 1<<LengthBits - 1
	// MaxPayloadWords is the largest number of payload words in one event.
	MaxPayloadWords = MaxWords - 1
	// NumMajors is the size of the major-ID space; one bit per major in the
	// trace mask.
	NumMajors = 1 << MajorBits
)

const (
	minorShift     = 0
	majorShift     = MinorBits
	lengthShift    = MinorBits + MajorBits
	timestampShift = MinorBits + MajorBits + LengthBits

	minorMask  = 1<<MinorBits - 1
	majorMask  = 1<<MajorBits - 1
	lengthMask = 1<<LengthBits - 1
)

// Major identifies one of the 64 event classes. Each major class owns its
// minor-ID space and corresponds to one bit in the trace mask, so the
// "should I log?" test is a single AND.
type Major uint8

// The major classes used by the tracing infrastructure itself and by the
// simulated OS. The first few mirror K42's subsystem classes (traceMem,
// traceProc, traceIO, ...). MajorControl is reserved for infrastructure
// events: fillers, clock anchors, buffer metadata.
const (
	MajorControl   Major = iota // fillers, clock anchors, stream metadata
	MajorMem                    // memory subsystem: page faults, regions, FCMs
	MajorProc                   // process lifecycle: fork, exec, exit
	MajorSched                  // dispatcher: context switches, migrations
	MajorLock                   // lock acquire/contend/release
	MajorIO                     // file system and device I/O
	MajorIPC                    // inter-process communication calls/returns
	MajorException              // traps: page-fault entry/exit, PPC calls
	MajorUser                   // application-level events
	MajorSyscall                // system-call entry/exit
	MajorSample                 // statistical PC sampler
	MajorAlloc                  // kernel memory allocator
	MajorNet                    // network stack events
	MajorTest                   // reserved for tests and examples

	// NumKnownMajors is the number of majors predeclared above. User code
	// may use any Major < NumMajors.
	NumKnownMajors
)

var majorNames = [NumMajors]string{
	MajorControl:   "CTRL",
	MajorMem:       "MEM",
	MajorProc:      "PROC",
	MajorSched:     "SCHED",
	MajorLock:      "LOCK",
	MajorIO:        "IO",
	MajorIPC:       "IPC",
	MajorException: "EXCEPTION",
	MajorUser:      "USER",
	MajorSyscall:   "SYSCALL",
	MajorSample:    "SAMPLE",
	MajorAlloc:     "ALLOC",
	MajorNet:       "NET",
	MajorTest:      "TEST",
}

// String returns a short subsystem name for the major ID, or "MAJ<n>" for
// majors without a predeclared name.
func (m Major) String() string {
	if int(m) < len(majorNames) && majorNames[m] != "" {
		return majorNames[m]
	}
	return fmt.Sprintf("MAJ%d", uint8(m))
}

// Valid reports whether m is within the 6-bit major space.
func (m Major) Valid() bool { return m < NumMajors }

// Bit returns the trace-mask bit for the major class.
func (m Major) Bit() uint64 { return 1 << (uint(m) & majorMask) }

// Minor IDs of MajorControl events, used by the infrastructure itself.
const (
	// CtrlFiller pads the remainder of a buffer so that no event crosses an
	// alignment boundary. A filler is a bare header whose length covers the
	// padded words; fillers chain when the remainder exceeds MaxWords.
	CtrlFiller uint16 = iota
	// CtrlClockAnchor carries a full 64-bit timestamp (payload word 0) and
	// the raw 32-bit stamp epoch, letting readers rebuild full time from
	// the 32-bit header stamps. One is logged at the start of every buffer.
	CtrlClockAnchor
	// CtrlBufferInfo carries [cpu, seq] identifying the buffer's origin.
	CtrlBufferInfo
	// CtrlTimeSync carries a (raw tsc, wall ns) pair used for LTT-style
	// interpolation when the timestamp source is an unsynchronized TSC.
	CtrlTimeSync
	// CtrlMaskChange marks the instant a new trace mask took effect on the
	// logging CPU: payload word 0 is the new mask, word 1 the previous one.
	// Analyses use it to delimit visibility epochs, so a runtime narrowing
	// of the mask is not misread as the workload ceasing activity.
	CtrlMaskChange
)

// Header is the first 64-bit word of every trace event.
type Header uint64

// MakeHeader packs a header word. length is the total event size in 64-bit
// words including the header and must be in [1, MaxWords]; major must be a
// valid 6-bit major. Values outside those ranges are masked, matching the
// behavior of the C bit-field packing in K42.
func MakeHeader(timestamp uint32, length int, major Major, minor uint16) Header {
	return Header(uint64(timestamp)<<timestampShift |
		uint64(length&lengthMask)<<lengthShift |
		uint64(major&majorMask)<<majorShift |
		uint64(minor)<<minorShift)
}

// Timestamp returns the 32-bit truncated timestamp.
func (h Header) Timestamp() uint32 { return uint32(h >> timestampShift) }

// Len returns the event length in 64-bit words, including the header word.
// A length of 0 never appears in a well-formed stream and is used by
// readers as a garble indicator.
func (h Header) Len() int { return int(h>>lengthShift) & lengthMask }

// Major returns the 6-bit major class ID.
func (h Header) Major() Major { return Major(h>>majorShift) & majorMask }

// Minor returns the 16 bits of major-class-defined data.
func (h Header) Minor() uint16 { return uint16(h) }

// IsFiller reports whether the header is a filler event.
func (h Header) IsFiller() bool {
	return h.Major() == MajorControl && h.Minor() == CtrlFiller
}

// WellFormed reports whether the header could be the start of a valid
// event: nonzero length within bounds. Tools use this when resynchronizing
// inside a garbled buffer ("it is unlikely that random data will have the
// correct format of a trace event header").
func (h Header) WellFormed() bool {
	l := h.Len()
	return l >= 1 && l <= MaxWords
}

func (h Header) String() string {
	return fmt.Sprintf("hdr{ts=%d len=%d %v/%d}", h.Timestamp(), h.Len(), h.Major(), h.Minor())
}

// Event is a decoded trace event: the header plus its payload words and the
// full (wrap-corrected) timestamp reconstructed by the reader.
type Event struct {
	Header Header
	// Time is the full 64-bit timestamp in clock ticks, reconstructed from
	// the 32-bit header stamp and the buffer's clock anchor.
	Time uint64
	// CPU is the processor slot whose buffer the event came from.
	CPU int
	// Data holds the payload words (length-1 words).
	Data []uint64
}

// Major and Minor are convenience accessors.
func (e *Event) Major() Major  { return e.Header.Major() }
func (e *Event) Minor() uint16 { return e.Header.Minor() }

// OwnPayloads moves the payloads of evs out of whatever they alias into one
// slab allocated here, sized to the payload words exactly, and re-points
// every Data at its part of the slab, capped at its own length so that an
// append to one event's Data cannot write into the next event's. It is how
// events decoded in place (core.DecodeInto) come to outlive the words they
// were decoded from.
func OwnPayloads(evs []Event) {
	n := 0
	for i := range evs {
		n += len(evs[i].Data)
	}
	if n == 0 {
		return
	}
	slab := make([]uint64, 0, n)
	for i := range evs {
		if d := evs[i].Data; len(d) > 0 {
			at := len(slab)
			slab = append(slab, d...)
			evs[i].Data = slab[at:len(slab):len(slab)]
		}
	}
}

// Clone returns a copy of evs that shares no storage with it: an event
// slice of exactly len(evs) and one exact payload slab (nil for no
// events). It is the copy-out step for a loop that decodes into reused
// scratch and keeps only some of what it decoded.
func Clone(evs []Event) []Event {
	if len(evs) == 0 {
		return nil
	}
	out := make([]Event, len(evs))
	copy(out, evs)
	OwnPayloads(out)
	return out
}
