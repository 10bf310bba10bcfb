package analysis

import (
	"bytes"
	"strings"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

// mk builds a decoded event for walker tests.
func mk(cpu int, ts uint64, major event.Major, minor uint16, data ...uint64) event.Event {
	return event.Event{
		Header: event.MakeHeader(uint32(ts), 1+len(data), major, minor),
		Time:   ts,
		CPU:    cpu,
		Data:   data,
	}
}

// packTestStr packs a string payload the way ksim does.
func packTestStr(s string) []uint64 {
	b := append([]byte(s), 0)
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(b[i*8+j]) << uint(8*j)
		}
		out[i] = w
	}
	return out
}

func TestWalkerSpansAndModes(t *testing.T) {
	evs := []event.Event{
		mk(0, 10, event.MajorSched, ksim.EvSchedSwitch, 0, 5),
		mk(0, 20, event.MajorSyscall, ksim.EvSyscallEnter, 5, ksim.SysRead),
		mk(0, 30, event.MajorException, ksim.EvPPCCall, 1),
		mk(0, 50, event.MajorException, ksim.EvPPCReturn, 1),
		mk(0, 60, event.MajorSyscall, ksim.EvSyscallExit, 5, ksim.SysRead),
		mk(0, 80, event.MajorSched, ksim.EvSchedIdle),
		mk(0, 100, event.MajorSched, ksim.EvSchedResume, 20),
	}
	type span struct {
		mode ModeKind
		pid  uint64
		dom  uint64
		d    uint64
	}
	var got []span
	Walk(evs, 0, Hooks{Span: func(cpu int, st *CPUState, from, to uint64) {
		got = append(got, span{st.Mode(), st.Pid, st.DomainPid(), to - from})
	}})
	want := []span{
		{ModeUser, 5, 5, 10},    // 10-20
		{ModeSyscall, 5, 0, 10}, // 20-30
		{ModeIPC, 5, 1, 20},     // 30-50
		{ModeSyscall, 5, 0, 10}, // 50-60
		{ModeUser, 5, 5, 20},    // 60-80
		{ModeIdle, 5, 5, 20},    // 80-100
	}
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestWalkerToleratesUnmatchedPops(t *testing.T) {
	evs := []event.Event{
		// Exit/return/done without matching push: must not panic.
		mk(0, 10, event.MajorSyscall, ksim.EvSyscallExit, 5, 1),
		mk(0, 20, event.MajorException, ksim.EvPPCReturn, 1),
		mk(0, 30, event.MajorException, ksim.EvPgfltDone, 5, 0x1000),
	}
	Walk(evs, 0, Hooks{})
}

func TestWalkerLockWaitMode(t *testing.T) {
	evs := []event.Event{
		mk(0, 0, event.MajorSched, ksim.EvSchedSwitch, 0, 7),
		mk(0, 10, event.MajorLock, ksim.EvLockStartWait, 0xe1, 2),
		mk(0, 110, event.MajorLock, ksim.EvLockAcquired, 0xe1, 100, 3, 2),
		mk(0, 120, event.MajorLock, ksim.EvLockRelease, 0xe1, 10),
	}
	var lockNs uint64
	Walk(evs, 0, Hooks{Span: func(cpu int, st *CPUState, from, to uint64) {
		if st.Mode() == ModeLockWait {
			lockNs += to - from
		}
	}})
	if lockNs != 100 {
		t.Errorf("lock-wait span = %d, want 100", lockNs)
	}
}

func TestBuildContextMaps(t *testing.T) {
	evs := []event.Event{
		mk(0, 1, event.MajorSample, ksim.EvSymDef, append([]uint64{7}, packTestStr("GMalloc::gMalloc()")...)...),
		mk(0, 2, event.MajorSample, ksim.EvChainDef, append([]uint64{3}, packTestStr("a < b < c")...)...),
		mk(0, 3, event.MajorIO, ksim.EvIOName, append([]uint64{12}, packTestStr("/tmp/x")...)...),
		mk(0, 4, event.MajorUser, ksim.EvUserRunULoader, append([]uint64{0, 9}, packTestStr("grep")...)...),
	}
	tr := Build(evs, 1e9, event.Default)
	if tr.SymName(7) != "GMalloc::gMalloc()" {
		t.Errorf("sym: %q", tr.SymName(7))
	}
	if f := tr.ChainFrames(3); len(f) != 3 || f[0] != "a" || f[2] != "c" {
		t.Errorf("chain: %v", f)
	}
	if tr.fileName(12) != "/tmp/x" {
		t.Errorf("file: %q", tr.fileName(12))
	}
	if tr.ProcName(9) != "grep" {
		t.Errorf("proc: %q", tr.ProcName(9))
	}
	// Unknown ids render placeholders; well-known pids are named.
	if tr.SymName(99) != "sym#99" || tr.fileName(99) != "file#99" || tr.ProcName(99) != "pid99" {
		t.Error("placeholder naming wrong")
	}
	if tr.ProcName(0) != "kernel" || tr.ProcName(1) != "baseServers" {
		t.Error("well-known pids not named")
	}
}

func TestLockStatFromCraftedEvents(t *testing.T) {
	evs := []event.Event{
		mk(0, 0, event.MajorSched, ksim.EvSchedSwitch, 0, 5),
		mk(0, 5, event.MajorException, ksim.EvPPCCall, 1), // into baseServers
		mk(0, 10, event.MajorLock, ksim.EvLockStartWait, 0xabc, 4),
		mk(0, 110, event.MajorLock, ksim.EvLockAcquired, 0xabc, 100, 12, 4),
		mk(0, 150, event.MajorLock, ksim.EvLockRelease, 0xabc, 40),
		// Second, longer contention on the same chain.
		mk(0, 200, event.MajorLock, ksim.EvLockStartWait, 0xabc, 4),
		mk(0, 500, event.MajorLock, ksim.EvLockAcquired, 0xabc, 300, 55, 4),
		mk(0, 520, event.MajorLock, ksim.EvLockRelease, 0xabc, 20),
	}
	tr := Build(evs, 1e9, event.Default)
	rep := tr.LockStat()
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (same lock/chain/pid aggregates)", len(rep.Rows))
	}
	r := rep.Rows[0]
	if r.Pid != 1 {
		t.Errorf("pid = %d, want 1 (attributed to PPC target domain)", r.Pid)
	}
	if r.Count != 2 || r.TotalWaitNs != 400 || r.Spins != 67 || r.MaxWaitNs != 300 || r.HoldNs != 60 {
		t.Errorf("row = %+v", r)
	}
	if rep.TotalWait() != 400 {
		t.Errorf("TotalWait = %d", rep.TotalWait())
	}
}

func TestLockStatSortKeys(t *testing.T) {
	evs := []event.Event{
		mk(0, 0, event.MajorSched, ksim.EvSchedSwitch, 0, 5),
		// Lock A: one long wait. Lock B: many short waits, more spins.
		mk(0, 10, event.MajorLock, ksim.EvLockStartWait, 0xa, 1),
		mk(0, 510, event.MajorLock, ksim.EvLockAcquired, 0xa, 500, 5, 1),
		mk(0, 600, event.MajorLock, ksim.EvLockStartWait, 0xb, 2),
		mk(0, 700, event.MajorLock, ksim.EvLockAcquired, 0xb, 100, 50, 2),
		mk(0, 800, event.MajorLock, ksim.EvLockStartWait, 0xb, 2),
		mk(0, 900, event.MajorLock, ksim.EvLockAcquired, 0xb, 100, 50, 2),
	}
	tr := Build(evs, 1e9, event.Default)
	rep := tr.LockStat()
	rep.Sort(ByTime)
	if rep.Rows[0].LockID != 0xa {
		t.Error("ByTime should rank lock A first")
	}
	rep.Sort(ByCount)
	if rep.Rows[0].LockID != 0xb {
		t.Error("ByCount should rank lock B first")
	}
	rep.Sort(BySpin)
	if rep.Rows[0].LockID != 0xb {
		t.Error("BySpin should rank lock B first")
	}
	rep.Sort(ByMaxTime)
	if rep.Rows[0].LockID != 0xa {
		t.Error("ByMaxTime should rank lock A first")
	}
}

func TestTimeBreakCrafted(t *testing.T) {
	evs := []event.Event{
		mk(0, 10, event.MajorSched, ksim.EvSchedSwitch, 0, 5),
		mk(0, 20, event.MajorSyscall, ksim.EvSyscallEnter, 5, ksim.SysRead),
		mk(0, 30, event.MajorException, ksim.EvPPCCall, 1),
		mk(0, 50, event.MajorException, ksim.EvPPCReturn, 1),
		mk(0, 60, event.MajorSyscall, ksim.EvSyscallExit, 5, ksim.SysRead),
		mk(0, 80, event.MajorException, ksim.EvPgflt, 5, 0x4000),
		mk(0, 95, event.MajorException, ksim.EvPgfltDone, 5, 0x4000),
		mk(0, 100, event.MajorProc, ksim.EvProcExit, 5),
	}
	tr := Build(evs, 1e9, event.Default)
	tb := tr.TimeBreak(5)
	if tb.UserNs != 10+20+5 { // 10-20, 60-80, 95-100
		t.Errorf("UserNs = %d, want 35", tb.UserNs)
	}
	sc := tb.Syscalls["SCread"]
	if sc == nil || sc.Ns != 20 || sc.Calls != 1 {
		t.Errorf("SCread = %+v", sc)
	}
	ip := tb.IPC["SCread"]
	if ip == nil || ip.Ns != 20 || ip.Calls != 1 {
		t.Errorf("IPC SCread = %+v", ip)
	}
	if tb.PageFault.Ns != 15 || tb.PageFault.Calls != 1 {
		t.Errorf("PageFault = %+v", tb.PageFault)
	}
	if tb.ExProcessNs != 20+20+15 {
		t.Errorf("ExProcess = %d, want 55", tb.ExProcessNs)
	}
	// Server view: baseServers serviced 20ns of SCread for pid 5.
	sb := tr.TimeBreak(1)
	sv := sb.Serviced["SCread"]
	if sv == nil || sv.Ns != 20 || sv.Calls != 1 {
		t.Errorf("Serviced SCread = %+v", sv)
	}
	out := tb.String()
	for _, want := range []string{"SCread", "User", "PageFault", "Ex-process"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown output missing %q:\n%s", want, out)
		}
	}
}

func TestTimeBreakDiskWait(t *testing.T) {
	const tid = 0x80000000c12b0150
	evs := []event.Event{
		mk(0, 5, event.MajorSched, ksim.EvSchedSwitch, 0, 7, tid),
		mk(0, 10, event.MajorIO, ksim.EvIOBlock, 3, tid),
		mk(1, 260, event.MajorIO, ksim.EvIOWake, 3, tid), // on another CPU
		mk(0, 300, event.MajorProc, ksim.EvProcExit, 7),
	}
	tr := Build(evs, 1e9, event.Default)
	if tr.ThreadPid[tid] != 7 {
		t.Fatalf("thread map: %v", tr.ThreadPid)
	}
	tb := tr.TimeBreak(7)
	if tb.DiskWait.Ns != 250 || tb.DiskWait.Calls != 1 {
		t.Errorf("DiskWait = %+v", tb.DiskWait)
	}
	if !strings.Contains(tb.String(), "DiskWait") {
		t.Errorf("format missing DiskWait:\n%s", tb)
	}
	// Another pid sees none of it.
	if other := tr.TimeBreak(9); other.DiskWait.Calls != 0 {
		t.Error("disk wait leaked to wrong pid")
	}
}

func TestProfileCrafted(t *testing.T) {
	evs := []event.Event{
		mk(0, 1, event.MajorSample, ksim.EvSymDef, append([]uint64{1}, packTestStr("FairBLock::_acquire()")...)...),
		mk(0, 2, event.MajorSample, ksim.EvSymDef, append([]uint64{2}, packTestStr("main")...)...),
		mk(0, 10, event.MajorSample, ksim.EvSamplePC, 1, 5),
		mk(0, 20, event.MajorSample, ksim.EvSamplePC, 1, 5),
		mk(0, 30, event.MajorSample, ksim.EvSamplePC, 2, 5),
		mk(0, 40, event.MajorSample, ksim.EvSamplePC, 1, 6),
	}
	tr := Build(evs, 1e9, event.Default)
	p := tr.Profile(5)
	if p.Total != 3 {
		t.Fatalf("Total = %d", p.Total)
	}
	if p.topName() != "FairBLock::_acquire()" {
		t.Errorf("topName = %q", p.topName())
	}
	if p.Rows[0].Count != 2 || p.Rows[1].Count != 1 {
		t.Errorf("rows = %+v", p.Rows)
	}
	all := tr.Profile(^uint64(0))
	if all.Total != 4 {
		t.Errorf("all-pid Total = %d", all.Total)
	}
	out := p.String()
	if !strings.Contains(out, "histogram for pid 0x5") || !strings.Contains(out, "count method") {
		t.Errorf("profile header wrong:\n%s", out)
	}
}

func TestListFigure5Format(t *testing.T) {
	evs := []event.Event{
		mk(0, 21474735000, event.MajorUser, ksim.EvUserRunULoader,
			append([]uint64{6, 7}, packTestStr("/shellServer")...)...),
		mk(0, 21474742200, event.MajorException, ksim.EvPgflt, 7, 0x405e628),
	}
	tr := Build(evs, 1e9, event.Default)
	var b bytes.Buffer
	n, err := tr.List(&b, ListOptions{})
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	out := b.String()
	if !strings.Contains(out, "21.4747350 TRC_USER_RUN_UL_LOADER") {
		t.Errorf("listing format wrong:\n%s", out)
	}
	if !strings.Contains(out, "process 6 created new process with id 7 name /shellServer") {
		t.Errorf("self-described rendering wrong:\n%s", out)
	}
	if !strings.Contains(out, "faultAddr 405e628") {
		t.Errorf("pgflt rendering wrong:\n%s", out)
	}
	// Filters.
	b.Reset()
	n, _ = tr.List(&b, ListOptions{Majors: []event.Major{event.MajorException}})
	if n != 1 {
		t.Errorf("major filter: n=%d", n)
	}
	b.Reset()
	n, _ = tr.List(&b, ListOptions{Limit: 1})
	if n != 1 {
		t.Errorf("limit: n=%d", n)
	}
	b.Reset()
	n, _ = tr.List(&b, ListOptions{From: 21474742200})
	if n != 1 {
		t.Errorf("from filter: n=%d", n)
	}
}

// sdetTrace produces a deterministic traced SDET run for the end-to-end
// tool tests.
func sdetTrace(t *testing.T, cpus int, tuned bool) *Trace {
	t.Helper()
	var buf bytes.Buffer
	p := sdet.Params{ScriptsPerCPU: 3, CommandsPerScript: 4, Seed: 9}
	if _, err := sdet.Run(sdet.Config{CPUs: cpus, Tuned: tuned,
		Trace: sdet.TraceOn, Params: p, Sample: 50_000}, &buf); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, st, err := rd.ReadAll()
	if err != nil || st.Garbled() {
		t.Fatalf("err=%v garbled=%v", err, st.Garbled())
	}
	return Build(evs, rd.Meta().ClockHz, event.Default)
}

func TestEndToEndLockStatReproducesFigure7(t *testing.T) {
	coarse := sdetTrace(t, 8, false)
	tuned := sdetTrace(t, 8, true)
	cr := coarse.LockStat()
	cr.Sort(ByTime)
	if len(cr.Rows) == 0 {
		t.Fatal("coarse run shows no contention")
	}
	tw := tuned.LockStat().TotalWait()
	cw := cr.TotalWait()
	t.Logf("lock wait: coarse %dns, tuned %dns", cw, tw)
	if tw*3 > cw {
		t.Errorf("tuned wait %d should be well under coarse %d", tw, cw)
	}
	// Top row must be attributed to kernel or baseServers and carry one of
	// the global-lock call chains.
	top := cr.Rows[0]
	if top.Pid > 1 {
		t.Errorf("top contended lock pid = %d, want 0 or 1", top.Pid)
	}
	frames := strings.Join(coarse.ChainFrames(top.ChainID), " ")
	if !strings.Contains(frames, "GMalloc") && !strings.Contains(frames, "Dentry") &&
		!strings.Contains(frames, "Dir") && !strings.Contains(frames, "PageAllocator") &&
		!strings.Contains(frames, "RunQueue") {
		t.Errorf("top chain unexpected: %s", frames)
	}
	var b bytes.Buffer
	if err := cr.Format(&b, 4); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "top 4 contended locks by time") ||
		!strings.Contains(out, "count") || !strings.Contains(out, "0x") {
		t.Errorf("Figure 7 format wrong:\n%s", out)
	}
}

func TestEndToEndProfileReproducesFigure6(t *testing.T) {
	// 16 coarse CPUs: the global locks saturate and spinning dominates the
	// profile, as in Figure 6 where FairBLock::_acquire() leads the
	// histogram.
	coarse := sdetTrace(t, 16, false)
	p := coarse.Profile(^uint64(0))
	if p.Total == 0 {
		t.Fatal("no samples")
	}
	if p.topName() != "FairBLock::_acquire()" {
		t.Errorf("top symbol = %q, want FairBLock::_acquire()\n%s", p.topName(), p)
	}
	// The tuned system must NOT be dominated by lock spinning.
	tuned := sdetTrace(t, 16, true)
	tp := tuned.Profile(^uint64(0))
	if tp.topName() == "FairBLock::_acquire()" {
		t.Errorf("tuned profile still dominated by spinning:\n%s", tp)
	}
}

func TestEndToEndTimeBreak(t *testing.T) {
	tr := sdetTrace(t, 4, true)
	// Pick the first user pid seen in a switch event.
	var pid uint64
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Major() == event.MajorSched && e.Minor() == ksim.EvSchedSwitch &&
			len(e.Data) >= 2 && e.Data[1] >= 2 {
			pid = e.Data[1]
			break
		}
	}
	if pid == 0 {
		t.Fatal("no user pid found")
	}
	tb := tr.TimeBreak(pid)
	if tb.UserNs == 0 {
		t.Error("no user time attributed")
	}
	if len(tb.Syscalls) == 0 {
		t.Error("no syscall categories")
	}
	if len(tb.IPC) == 0 {
		t.Error("no IPC categories")
	}
	if tb.ExProcessNs == 0 {
		t.Error("no ex-process time")
	}
	// baseServers services IPC for everyone.
	sb := tr.TimeBreak(1)
	if len(sb.Serviced) == 0 {
		t.Error("baseServers serviced nothing")
	}
}

func TestEndToEndTimeline(t *testing.T) {
	tr := sdetTrace(t, 4, false)
	tl := tr.Timeline(60, "TRC_USER_RUN_UL_LOADER")
	if len(tl.Cells) != 4 {
		t.Fatalf("timeline rows = %d", len(tl.Cells))
	}
	ascii := tl.ASCII()
	if !strings.Contains(ascii, "cpu0") || !strings.Contains(ascii, "cpu3") {
		t.Errorf("ascii missing rows:\n%s", ascii)
	}
	if len(tl.Markers["TRC_USER_RUN_UL_LOADER"]) == 0 {
		t.Error("no markers recorded")
	}
	svg := tl.SVG()
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "<rect") {
		t.Error("svg output malformed")
	}
	util := tl.Utilization()
	busy := 0.0
	for _, u := range util {
		busy += u
	}
	if busy == 0 {
		t.Error("zero utilization")
	}
	// A coarse run spends visible time lock-waiting; the timeline should
	// show 'L' cells somewhere.
	if !strings.Contains(ascii, "L") {
		t.Errorf("expected lock-wait cells in coarse timeline:\n%s", ascii)
	}
}

// TestTimelineMarksInAskedOrder renders three marks, asked for out of name
// order, several times: the marker rows of both renderers come in the
// order they were asked for, every time.
func TestTimelineMarksInAskedOrder(t *testing.T) {
	tr := sdetTrace(t, 4, false)
	marks := []string{"TRC_USER_RUN_UL_LOADER", "TRC_SCHED_SWITCH", "TRC_LOCK_STARTWAIT"}
	inOrder := func(what, out string, rowOf func(name string) string) {
		t.Helper()
		at := -1
		for _, name := range marks {
			i := strings.Index(out, rowOf(name))
			if i <= at {
				t.Fatalf("%s: row of %s at %d, after the previous mark's at %d:\n%s", what, name, i, at, out)
			}
			at = i
		}
	}
	for range 8 {
		tl := tr.Timeline(60, marks...)
		inOrder("ascii", tl.ASCII(), func(name string) string { return " " + name + " (" })
		inOrder("svg", tl.SVG(), func(name string) string { return `">` + name + "</text>" })
	}
}

// TestTimelineShowsStartupIdle reproduces the paper's graphical-tool
// anecdote: "we noticed large idle periods on many processors when the
// benchmark started ... caused by poor coordination between the timing
// and start routines of the benchmark. These idle periods were clearly
// visible using the graphics visualizer."
func TestTimelineShowsStartupIdle(t *testing.T) {
	var buf bytes.Buffer
	p := sdet.Params{ScriptsPerCPU: 1, CommandsPerScript: 3, Seed: 5}
	if _, err := sdet.Run(sdet.Config{CPUs: 4, Tuned: true, Trace: sdet.TraceOn,
		Params: p, Stagger: 400_000}, &buf); err != nil {
		t.Fatal(err)
	}
	rd, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	tr := Build(evs, rd.Meta().ClockHz, event.Default)
	tl := tr.Timeline(60)
	// The last CPU starts latest: its row must lead with idle cells.
	lastRow := tl.Cells[3]
	idleLead := 0
	for _, m := range lastRow {
		if m == ModeIdle {
			idleLead++
		} else if m >= 0 {
			break
		}
	}
	if idleLead < 3 {
		t.Errorf("expected a visible leading idle period on cpu3, got %d cells:\n%s",
			idleLead, tl.ASCII())
	}
	// And the same run without stagger has no such lead.
	buf.Reset()
	if _, err := sdet.Run(sdet.Config{CPUs: 4, Tuned: true, Trace: sdet.TraceOn,
		Params: p}, &buf); err != nil {
		t.Fatal(err)
	}
	rd2, err := stream.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	evs2, _, err := rd2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	tl2 := Build(evs2, rd2.Meta().ClockHz, event.Default).Timeline(60)
	if tl2.Cells[3][0] == ModeIdle {
		t.Error("unstaggered run should not idle at start")
	}
}

func TestTimelineRangeZoom(t *testing.T) {
	tr := sdetTrace(t, 2, false)
	first, last := tr.Span()
	mid := first + (last-first)/2
	zoom := tr.TimelineRange(mid, last, 40)
	if zoom.Start != mid || zoom.End != last {
		t.Fatalf("window %d..%d", zoom.Start, zoom.End)
	}
	// The zoomed bucket width is about half the full one.
	full := tr.Timeline(40)
	if zoom.BucketNs >= full.BucketNs {
		t.Errorf("zoom bucket %d should be smaller than full %d", zoom.BucketNs, full.BucketNs)
	}
	// Covered cells exist and rendering works.
	if !strings.Contains(zoom.ASCII(), "cpu0") {
		t.Error("zoom render failed")
	}
	// A window before all events renders empty rows without panicking.
	empty := tr.TimelineRange(0, 1, 10)
	_ = empty.ASCII()
}

func TestListPidAndCPUFilters(t *testing.T) {
	evs := []event.Event{
		mk(0, 10, event.MajorSched, ksim.EvSchedSwitch, 0, 5),
		mk(0, 20, event.MajorUser, 40, 1),
		mk(0, 30, event.MajorSched, ksim.EvSchedSwitch, 5, 6),
		mk(0, 40, event.MajorUser, 41, 2),
		mk(1, 15, event.MajorUser, 42, 3),
	}
	tr := Build(evs, 1e9, event.Default)
	var b bytes.Buffer
	n, err := tr.List(&b, ListOptions{HasPid: true, Pid: 5})
	if err != nil {
		t.Fatal(err)
	}
	// While pid 5 is scheduled on cpu0: the switch-to-6 event (applied
	// after listing) and the minor-40 user event; cpu1's events have pid 0.
	if n != 2 {
		t.Fatalf("pid filter: %d lines\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "TRC_USER_40") &&
		!strings.Contains(b.String(), "40") {
		t.Errorf("missing pid-5 event:\n%s", b.String())
	}
	b.Reset()
	n, _ = tr.List(&b, ListOptions{HasCPU: true, CPU: 1})
	if n != 1 {
		t.Fatalf("cpu filter: %d lines\n%s", n, b.String())
	}
}

func TestTimelineEmptyTrace(t *testing.T) {
	tr := Build(nil, 1e9, event.Default)
	tl := tr.Timeline(10)
	if len(tl.Cells) != 1 {
		t.Fatalf("cells: %d", len(tl.Cells))
	}
	_ = tl.ASCII()
	_ = tl.SVG()
}
