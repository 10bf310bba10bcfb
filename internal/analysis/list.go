package analysis

import (
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"k42trace/internal/event"
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
	var states []CPUState        // the walker's replay, which List can leave early
	line := make([]byte, 0, 128) // every line is built here and written whole
	for i := range t.Events {
		if opt.Limit > 0 && lines >= opt.Limit {
			break
		}
		e := &t.Events[i]
		if e.CPU < 0 {
			continue
		}
		for e.CPU >= len(states) {
			states = append(states, CPUState{})
		}
		st := &states[e.CPU]
		// st is the CPU's state as of just before e.
		if (opt.ShowControl || e.Major() != event.MajorControl) &&
			(len(opt.Majors) == 0 || slices.Contains(opt.Majors, e.Major())) &&
			e.Time >= opt.From && (opt.To == 0 || e.Time < opt.To) &&
			(!opt.HasPid || st.Pid == opt.Pid) && (!opt.HasCPU || e.CPU == opt.CPU) {
			// The seconds stay on the float path: integer arithmetic
			// rounds ties differently (ts % 100 == 50 at 1 GHz).
			line = strconv.AppendFloat(line[:0], t.Seconds(e.Time), 'f', 7, 64)
			line = append(line, ' ')
			if d := t.Reg.Lookup(e.Major(), e.Minor()); d != nil {
				line = d.AppendText(appendName(line, d.Name), e.Data)
			} else { // unregistered: the generic rendering
				name, text := event.Describe(t.Reg, e)
				line = append(appendName(line, name), text...)
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return lines, err
			}
			lines++
		}
		apply(e, st)
	}
	return lines, nil
}

// appendName appends the name column as "%-28s " prints it: padded to 28
// runes, then the separating space.
func appendName(dst []byte, name string) []byte {
	dst = append(dst, name...)
	for n := utf8.RuneCountInString(name); n < 28; n++ {
		dst = append(dst, ' ')
	}
	return append(dst, ' ')
}
