package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"k42trace/internal/clock"
	"k42trace/internal/event"
)

// This file drives the reserve/commit/stuck-slot-reclaim machinery through
// scripted, fully deterministic interleavings. Writers are real goroutines
// (so the race detector sees the actual cross-goroutine handoffs), but the
// driver admits exactly one operation at a time, so every schedule decides
// precisely which writer reserves, which one is "killed" between reserve
// and commit (ReserveOnly), and which one wraps around onto the stuck slot
// and must reclaim it. Geometry is pinned small — BufWords 16, NumBufs 2,
// manual clock, 2-word Log1 units — so each schedule's seal sequence,
// commit counts, and StuckSeals totals can be written out by hand.
//
// ZeroFill is on: a killed reservation decodes as a clean hole (skipped
// zero words), so event recovery can be asserted exactly — every committed
// tag recovered once, no phantom events from the hole.

type schedAction int

const (
	actLog schedAction = iota
	// actKill reserves space and never commits it — the paper's §3.1
	// killed-mid-log failure, injected via ReserveOnly.
	actKill
	// actReclaimLog is a log that must wrap onto a stuck slot: the driver
	// waits for the anomalous seal the writer produces by reclaiming,
	// releases it, and only then waits for the log itself to finish.
	actReclaimLog
)

const killMinor = 99

type schedStep struct {
	w    int
	act  schedAction
	kill int // payload words for actKill (reservation is 1+kill words)
}

type writerOp struct {
	act  schedAction
	tag  uint64
	kill int
}

// sealRec is the comparable part of a Sealed value.
type sealRec struct {
	CPU       int
	Seq       uint64
	Committed uint64
	N         int
	Anomalous bool
	Partial   bool
}

func sLog(w int) schedStep           { return schedStep{w: w, act: actLog} }
func sKill(w, payload int) schedStep { return schedStep{w: w, act: actKill, kill: payload} }
func sReclaim(w int) schedStep       { return schedStep{w: w, act: actReclaimLog} }

func logsOn(w, n int) []schedStep {
	s := make([]schedStep, n)
	for i := range s {
		s[i] = sLog(w)
	}
	return s
}

func cat(groups ...[]schedStep) []schedStep {
	var out []schedStep
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func one(s schedStep) []schedStep { return []schedStep{s} }

// TestScheduledReclaim runs the schedule table. Buffer geometry used by
// every expectation below: a 16-word buffer holds a 2-word clock anchor
// plus seven 2-word Log1 units; a kill with payload 1 leaves a 2-word
// uncommitted hole, payload 3 a 4-word hole. A buffer whose commit count
// stalls short never seals on its own; the next writer to wrap onto its
// slot seals it anomalous (StuckSeals) and the driver, acting as the
// consumer, releases it.
func TestScheduledReclaim(t *testing.T) {
	schedules := []struct {
		name    string
		writers int
		nCPUs   int   // tracer CPU slots; 0 means 1
		cpus    []int // writer → CPU slot; nil = all on CPU 0
		steps   []schedStep
		stuck   uint64
		skipped int // total zero-hole words the decoders must skip
		seals   []sealRec
		check   func(t *testing.T, tr *Tracer)
	}{
		{
			// Kill in the middle of buffer 0; buffer 1 fills and seals
			// normally first; the wrap-around log reclaims buffer 0.
			name: "kill-mid-buffer", writers: 1,
			steps: cat(logsOn(0, 3), one(sKill(0, 1)), logsOn(0, 3),
				logsOn(0, 7), one(sReclaim(0))),
			stuck: 1, skipped: 2,
			seals: []sealRec{
				{Seq: 1, Committed: 16, N: 16},
				{Seq: 0, Committed: 14, N: 16, Anomalous: true},
				{Seq: 2, Committed: 4, N: 4, Partial: true},
			},
		},
		{
			// The very first reservation is killed: the transition winner
			// commits the anchor, then vanishes. The hole sits right after
			// the anchor.
			name: "kill-first-event", writers: 1,
			steps: cat(one(sKill(0, 1)), logsOn(0, 6),
				logsOn(0, 7), one(sReclaim(0))),
			stuck: 1, skipped: 2,
			seals: []sealRec{
				{Seq: 1, Committed: 16, N: 16},
				{Seq: 0, Committed: 14, N: 16, Anomalous: true},
				{Seq: 2, Committed: 4, N: 4, Partial: true},
			},
		},
		{
			// Kill takes the last unit of buffer 0, so the reservation index
			// reaches the boundary but the commit count never does.
			name: "kill-buffer-tail", writers: 1,
			steps: cat(logsOn(0, 6), one(sKill(0, 1)),
				logsOn(0, 7), one(sReclaim(0))),
			stuck: 1, skipped: 2,
			seals: []sealRec{
				{Seq: 1, Committed: 16, N: 16},
				{Seq: 0, Committed: 14, N: 16, Anomalous: true},
				{Seq: 2, Committed: 4, N: 4, Partial: true},
			},
		},
		{
			// A wider (4-word) reservation is killed; the commit deficit and
			// the decoded hole grow to match.
			name: "wide-kill", writers: 1,
			steps: cat(logsOn(0, 1), one(sKill(0, 3)), logsOn(0, 4),
				logsOn(0, 7), one(sReclaim(0))),
			stuck: 1, skipped: 4,
			seals: []sealRec{
				{Seq: 1, Committed: 16, N: 16},
				{Seq: 0, Committed: 12, N: 16, Anomalous: true},
				{Seq: 2, Committed: 4, N: 4, Partial: true},
			},
		},
		{
			// Two independent kills in one buffer: a single reclaim covers
			// both holes (one stuck seal, commit deficit of 4).
			name: "two-kills-one-buffer", writers: 1,
			steps: cat(one(sLog(0)), one(sKill(0, 1)), one(sLog(0)),
				one(sKill(0, 1)), logsOn(0, 3),
				logsOn(0, 7), one(sReclaim(0))),
			stuck: 1, skipped: 4,
			seals: []sealRec{
				{Seq: 1, Committed: 16, N: 16},
				{Seq: 0, Committed: 12, N: 16, Anomalous: true},
				{Seq: 2, Committed: 4, N: 4, Partial: true},
			},
		},
		{
			// Both ring slots go stuck back to back; each wrap-around must
			// perform its own reclamation.
			name: "kills-in-consecutive-buffers", writers: 1,
			steps: cat(logsOn(0, 6), one(sKill(0, 1)),
				logsOn(0, 6), one(sKill(0, 1)),
				one(sReclaim(0)), logsOn(0, 6), one(sReclaim(0))),
			stuck: 2, skipped: 4,
			seals: []sealRec{
				{Seq: 0, Committed: 14, N: 16, Anomalous: true},
				{Seq: 2, Committed: 16, N: 16},
				{Seq: 1, Committed: 14, N: 16, Anomalous: true},
				{Seq: 3, Committed: 4, N: 4, Partial: true},
			},
		},
		{
			// Three writers interleave on one CPU slot; writer 1 is killed
			// mid-buffer and writer 0 later reclaims. Commit counts are a
			// shared per-buffer total, not per-writer.
			name: "three-writers-one-killed", writers: 3,
			steps: cat(one(sLog(0)), one(sLog(1)), one(sLog(2)),
				one(sKill(1, 1)),
				one(sLog(2)), one(sLog(0)), one(sLog(1)),
				one(sLog(2)), one(sLog(0)), one(sLog(1)), one(sLog(2)),
				one(sLog(0)), one(sLog(1)), one(sLog(2)),
				one(sReclaim(0))),
			stuck: 1, skipped: 2,
			seals: []sealRec{
				{Seq: 1, Committed: 16, N: 16},
				{Seq: 0, Committed: 14, N: 16, Anomalous: true},
				{Seq: 2, Committed: 4, N: 4, Partial: true},
			},
		},
		{
			// A kill and its reclamation on CPU 0 must not perturb CPU 1:
			// no stuck seals, no block-waits, no CAS retries there.
			name: "cross-cpu-independence", writers: 2, nCPUs: 2,
			cpus: []int{0, 1},
			steps: cat(one(sLog(0)), one(sLog(1)), logsOn(0, 5),
				one(sKill(0, 1)), one(sLog(1)),
				logsOn(0, 7), one(sReclaim(0)), one(sLog(1))),
			stuck: 1, skipped: 2,
			seals: []sealRec{
				{CPU: 0, Seq: 1, Committed: 16, N: 16},
				{CPU: 0, Seq: 0, Committed: 14, N: 16, Anomalous: true},
				{CPU: 0, Seq: 2, Committed: 4, N: 4, Partial: true},
				{CPU: 1, Seq: 0, Committed: 8, N: 8, Partial: true},
			},
			check: func(t *testing.T, tr *Tracer) {
				if n := tr.cpus[0].Stats().StuckSeals; n != 1 {
					t.Errorf("cpu 0 StuckSeals = %d, want 1", n)
				}
				if n := tr.cpus[1].Stats().StuckSeals; n != 0 {
					t.Errorf("cpu 1 StuckSeals = %d, want 0", n)
				}
				if n := tr.cpus[1].Stats().BlockWaits; n != 0 {
					t.Errorf("cpu 1 BlockWaits = %d; reclaim leaked across CPUs", n)
				}
				if n := tr.cpus[1].Stats().Retries; n != 0 {
					t.Errorf("cpu 1 Retries = %d; slots are not independent", n)
				}
			},
		},
	}

	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			nCPUs := sc.nCPUs
			if nCPUs == 0 {
				nCPUs = 1
			}
			tr := MustNew(Config{CPUs: nCPUs, BufWords: 16, NumBufs: 2,
				Mode: Stream, Clock: clock.NewManual(1), ZeroFill: true})
			tr.EnableAll()

			ops := make([]chan writerOp, sc.writers)
			done := make([]chan bool, sc.writers)
			for w := 0; w < sc.writers; w++ {
				ops[w] = make(chan writerOp)
				done[w] = make(chan bool, 1)
				cpu := 0
				if sc.cpus != nil {
					cpu = sc.cpus[w]
				}
				go func(c CPU, ops <-chan writerOp, done chan<- bool) {
					for op := range ops {
						switch op.act {
						case actKill:
							done <- c.ReserveOnly(event.MajorTest, killMinor, op.kill)
						default:
							done <- c.Log1(event.MajorTest, 1, op.tag)
						}
					}
				}(tr.CPU(cpu), ops[w], done[w])
			}

			var (
				got   []sealRec
				words [][]uint64
			)
			record := func(s Sealed) {
				w := make([]uint64, len(s.Words))
				copy(w, s.Words)
				got = append(got, sealRec{CPU: s.CPU, Seq: s.Seq,
					Committed: s.Committed, N: len(s.Words),
					Anomalous: s.Anomalous(), Partial: s.Partial})
				words = append(words, w)
				tr.Release(s)
			}
			drain := func() {
				for {
					select {
					case s := <-tr.Sealed():
						record(s)
					default:
						return
					}
				}
			}

			var wantTags []uint64
			for i, st := range sc.steps {
				tag := uint64(i+1)<<8 | uint64(st.w)
				ops[st.w] <- writerOp{act: st.act, tag: tag, kill: st.kill}
				if st.act == actReclaimLog {
					select {
					case s := <-tr.Sealed():
						if !s.Anomalous() {
							t.Fatalf("step %d: expected the stuck seal first, got committed %d/%d",
								i, s.Committed, len(s.Words))
						}
						record(s)
					case ok := <-done[st.w]:
						t.Fatalf("step %d: reclaim step finished (ok=%v) without sealing a stuck buffer", i, ok)
					case <-time.After(10 * time.Second):
						t.Fatalf("step %d: stuck-slot reclaim never happened", i)
					}
				}
				select {
				case ok := <-done[st.w]:
					if !ok {
						t.Fatalf("step %d: writer %d operation failed", i, st.w)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("step %d: writer %d never finished", i, st.w)
				}
				if st.act != actKill {
					wantTags = append(wantTags, tag)
				}
				drain()
			}
			for _, ch := range ops {
				close(ch)
			}
			tr.Stop()
			for s := range tr.Sealed() {
				record(s)
			}

			if !reflect.DeepEqual(got, sc.seals) {
				t.Errorf("seal sequence mismatch:\n got  %+v\n want %+v", got, sc.seals)
			}
			st := tr.Stats()
			if st.StuckSeals != sc.stuck {
				t.Errorf("StuckSeals = %d, want %d", st.StuckSeals, sc.stuck)
			}
			if st.Dropped != 0 {
				t.Errorf("Dropped = %d, want 0 (Block policy must be lossless)", st.Dropped)
			}
			if st.Events != uint64(len(wantTags)) {
				t.Errorf("Events = %d, want %d (killed reservations must not count)",
					st.Events, len(wantTags))
			}

			// Recovery: every committed tag exactly once, killed holes
			// decode as skipped zero words, and a seal is garbled iff its
			// commit count said so.
			seen := make(map[uint64]bool)
			skipped := 0
			for i, rec := range got {
				evs, ds := DecodeBuffer(rec.CPU, words[i])
				skipped += ds.SkippedWords
				if ds.Garbled() != rec.Anomalous {
					t.Errorf("seal %d (%+v): decode garbled=%v, commit count says %v",
						i, rec, ds.Garbled(), rec.Anomalous)
				}
				for _, e := range evs {
					if e.Major() != event.MajorTest || e.Minor() != 1 {
						continue
					}
					tag := e.Data[0]
					if seen[tag] {
						t.Errorf("tag %#x recovered twice", tag)
					}
					seen[tag] = true
				}
			}
			if skipped != sc.skipped {
				t.Errorf("decoders skipped %d words, want %d", skipped, sc.skipped)
			}
			for _, tag := range wantTags {
				if !seen[tag] {
					t.Errorf("logged tag %#x not recovered", tag)
				}
			}
			if len(seen) != len(wantTags) {
				t.Errorf("recovered %d tags, want %d (a killed reservation must stay a hole)",
					len(seen), len(wantTags))
			}
			if sc.check != nil {
				sc.check(t, tr)
			}
		})
	}
}

// TestReclaimRequiresSoleInflight pins the reclaim precondition: a writer
// blocked on a stuck slot may only seal it when no other logger on the CPU
// is in flight (the stuck buffer's commit count must be final). The
// schedule parks writer B inside its timestamp read — reserved state, no
// commit yet — and shows that writer A, wrapping onto the stuck slot,
// spins (BlockWaits) without reclaiming; alone again, the next writer
// reclaims immediately.
func TestReclaimRequiresSoleInflight(t *testing.T) {
	// Clock-read ledger for the prelude (2-word Log1 units, 16-word
	// buffers, reads counted across fast and slow paths):
	//   #1     log   slow path: anchor + event open buffer 0
	//   #2     kill  ReserveOnly leaves a 2-word hole; buffer 0 will stick
	//   #3-7   log ×5  buffer 0 reaches its boundary, committed 14/16
	//   #8     log   slow path into buffer 1
	//   #9-13  log ×5  buffer 1 one unit short of full
	//   #14    B's log — gated here: in flight, pre-CAS
	//   #15    A's log fills buffer 1 (normal seal)
	g := newGateClock(14)
	tr := MustNew(Config{CPUs: 1, BufWords: 16, NumBufs: 2, Mode: Stream,
		Clock: g, ZeroFill: true})
	tr.EnableAll()
	c := tr.CPU(0)
	mustLog := func(tag uint64) {
		t.Helper()
		if !c.Log1(event.MajorTest, 1, tag) {
			t.Fatalf("log %d failed", tag)
		}
	}
	mustLog(1)
	if !c.ReserveOnly(event.MajorTest, killMinor, 1) {
		t.Fatal("ReserveOnly failed")
	}
	for i := uint64(2); i <= 12; i++ {
		mustLog(i)
	}

	bres := make(chan bool, 1)
	go func() { bres <- c.Log1(event.MajorTest, 1, 100) }()
	<-g.blocked // B is parked inside its timestamp read: in flight

	mustLog(13) // fills buffer 1
	s := <-tr.Sealed()
	if s.Anomalous() || s.Committed != 16 {
		t.Fatalf("buffer 1 seal: committed %d/%d", s.Committed, len(s.Words))
	}
	tr.Release(s)

	ares := make(chan bool, 1)
	go func() { ares <- c.Log1(event.MajorTest, 1, 101) }()

	// A wraps onto stuck slot 0 but must not reclaim: B is still in
	// flight, so the stuck commit count is not yet final.
	deadline := time.Now().Add(10 * time.Second)
	for tr.Stats().BlockWaits < 5 {
		if time.Now().After(deadline) {
			t.Fatal("writer A never reached the block-wait loop")
		}
		runtime.Gosched()
	}
	if n := tr.Stats().StuckSeals; n != 0 {
		t.Fatalf("reclaimed with another logger in flight: StuckSeals = %d", n)
	}

	// Disabling tracing is the sanctioned way out: both writers bail via
	// the mask re-check instead of spinning forever.
	tr.Disable(event.MajorTest)
	if <-ares {
		t.Error("blocked log succeeded after tracing was disabled")
	}
	close(g.gate)
	if <-bres {
		t.Error("gated log succeeded after tracing was disabled")
	}
	if d := tr.Stats().Dropped; d != 2 {
		t.Errorf("Dropped = %d, want 2", d)
	}
	if n := tr.Stats().StuckSeals; n != 0 {
		t.Fatalf("StuckSeals = %d after bail-out, want 0", n)
	}

	// Alone again, the next writer reclaims the stuck slot on its first
	// wrap-around attempt.
	tr.Enable(event.MajorTest)
	released := make(chan struct{})
	go func() {
		s := <-tr.Sealed()
		if !s.Anomalous() || s.Committed != 14 {
			t.Errorf("stuck seal: committed %d/%d, anomalous=%v",
				s.Committed, len(s.Words), s.Anomalous())
		}
		tr.Release(s)
		close(released)
	}()
	mustLog(14)
	<-released
	if n := tr.Stats().StuckSeals; n != 1 {
		t.Errorf("StuckSeals = %d, want 1", n)
	}
	tr.Stop()
	for s := range tr.Sealed() {
		tr.Release(s)
	}
}
