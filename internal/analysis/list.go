package analysis

import (
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// ListOptions filter the event listing.
type ListOptions struct {
	// Majors restricts output to the given major classes (nil = all).
	Majors []event.Major
	// From/To restrict to a time window in trace ticks (To 0 = end). This
	// is the "listing of every event that occurred around the time period
	// the mouse was clicked in" view.
	From, To uint64
	// Limit caps the number of lines (0 = unlimited).
	Limit int
	// ShowControl includes infrastructure events (anchors, definitions).
	ShowControl bool
	// HasPid restricts output to events logged while Pid was the scheduled
	// process (attribution via the replayed scheduling state, so it works
	// for events that do not carry a pid themselves).
	HasPid bool
	Pid    uint64
	// HasCPU restricts output to events from processor CPU.
	HasCPU bool
	CPU    int
}

// List writes the trace as the paper's Figure 5 listing: time in seconds
// (7 decimal places), the event's symbolic name, and its self-described
// rendering. It stops at the Limit-th line or the first write error.
//
//	21.4747350 TRC_USER_RUN_UL_LOADER process 6 created new process with id 7 ...
func (t *Trace) List(w io.Writer, opt ListOptions) (lines int, err error) {
	return List(w, t.Events, t.ClockHz, t.Reg, opt)
}

// List is the lister over a time-merged event stream: a listing reads
// nothing of a Trace but its events, its clock and the registry, which
// self-describing events are named from. hz and reg default as in
// NewTrace.
func List(w io.Writer, evs []event.Event, hz uint64, reg *event.Registry, opt ListOptions) (lines int, err error) {
	hz, reg = withDefaults(hz, reg)
	// The scheduled pid of each CPU as of just before its next event: the
	// one piece of the walker's state a listing reads, replayed as apply
	// replays it.
	var pids []uint64
	line := make([]byte, 0, 128) // every line is built here and written whole
	for i := range evs {
		if opt.Limit > 0 && lines >= opt.Limit {
			break
		}
		e := &evs[i]
		if e.CPU < 0 {
			continue
		}
		if e.CPU >= len(pids) {
			pids = append(pids, make([]uint64, e.CPU+1-len(pids))...)
		}
		if (opt.ShowControl || e.Major() != event.MajorControl) &&
			(len(opt.Majors) == 0 || slices.Contains(opt.Majors, e.Major())) &&
			e.Time >= opt.From && (opt.To == 0 || e.Time < opt.To) &&
			(!opt.HasPid || pids[e.CPU] == opt.Pid) && (!opt.HasCPU || e.CPU == opt.CPU) {
			// The seconds stay on the float path: integer arithmetic
			// rounds ties differently (ts % 100 == 50 at 1 GHz).
			line = strconv.AppendFloat(line[:0], float64(e.Time)/float64(hz), 'f', 7, 64)
			line = append(line, ' ')
			if d := reg.Lookup(e.Major(), e.Minor()); d != nil {
				line = d.AppendText(appendName(line, d.Name), e.Data)
			} else { // unregistered: the generic rendering
				name, text := event.Describe(reg, e)
				line = append(appendName(line, name), text...)
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return lines, err
			}
			lines++
		}
		if e.Major() == event.MajorSched && e.Minor() == ksim.EvSchedSwitch && len(e.Data) >= 2 {
			pids[e.CPU] = e.Data[1]
		}
	}
	return lines, nil
}

// appendName appends the name column as "%-28s " prints it: padded to 28
// runes, then the separating space.
func appendName(dst []byte, name string) []byte {
	return append(appendLeft(dst, name, 28), ' ')
}

// appendLeft appends s as "%-<width>s" prints it: padded with spaces to
// width runes, never cut.
func appendLeft(dst []byte, s string, width int) []byte {
	dst = append(dst, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		dst = append(dst, ' ')
	}
	return dst
}

// appendRight appends s right-aligned in width bytes, as fmt pads a number.
func appendRight(dst, s []byte, width int) []byte {
	for n := len(s); n < width; n++ {
		dst = append(dst, ' ')
	}
	return append(dst, s...)
}

// appendUint appends v as "%<width>d" prints it.
func appendUint(dst []byte, v uint64, width int) []byte {
	var b [20]byte
	return appendRight(dst, strconv.AppendUint(b[:0], v, 10), width)
}

// appendFloat appends v as "%<width>.<prec>f" prints it, for a finite v.
func appendFloat(dst []byte, v float64, prec, width int) []byte {
	var b [32]byte
	return appendRight(dst, strconv.AppendFloat(b[:0], v, 'f', prec, 64), width)
}
