package analysis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

func TestOverviewCrafted(t *testing.T) {
	evs := []event.Event{
		mk(0, 0, event.MajorSched, ksim.EvSchedSwitch, 0, 5),
		mk(0, 100, event.MajorSyscall, ksim.EvSyscallEnter, 5, ksim.SysRead), // 100 user
		mk(0, 150, event.MajorSyscall, ksim.EvSyscallExit, 5, ksim.SysRead),  // 50 kernel
		mk(0, 200, event.MajorSched, ksim.EvSchedSwitch, 5, 6),               // 50 more user
		mk(0, 260, event.MajorLock, ksim.EvLockStartWait, 0xA, 1),            // 60 user (pid6)
		mk(0, 300, event.MajorLock, ksim.EvLockAcquired, 0xA, 40, 1, 1),      // 40 lock
		mk(0, 340, event.MajorProc, ksim.EvProcExit, 6),                      // 40 user
	}
	tr := Build(evs, 1e9, event.Default)
	rows := tr.Overview()
	byPid := map[uint64]ProcSummary{}
	for _, r := range rows {
		byPid[r.Pid] = r
	}
	p5 := byPid[5]
	if p5.UserNs != 150 || p5.KernelNs != 50 {
		t.Errorf("pid5 %+v", p5)
	}
	p6 := byPid[6]
	if p6.UserNs != 100 || p6.LockNs != 40 {
		t.Errorf("pid6 %+v", p6)
	}
	if p5.TotalNs() != 200 || p6.TotalNs() != 140 {
		t.Errorf("totals %d %d", p5.TotalNs(), p6.TotalNs())
	}
	// Sorted by total descending: pid5 first (ignoring pid0's bootstrap row).
	var nonKernel []ProcSummary
	for _, r := range rows {
		if r.Pid >= 5 {
			nonKernel = append(nonKernel, r)
		}
	}
	if nonKernel[0].Pid != 5 {
		t.Errorf("sort order: %+v", nonKernel)
	}
	out := overviewText(rows)
	for _, want := range []string{"pid", "user(us)", "lock(us)", "events"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestOverviewOnSDETTrace(t *testing.T) {
	tr := sdetTrace(t, 4, false)
	rows := tr.Overview()
	if len(rows) < 3 {
		t.Fatalf("only %d processes", len(rows))
	}
	var totalEvents uint64
	for _, r := range rows {
		totalEvents += r.Events
	}
	if totalEvents == 0 {
		t.Error("no events attributed")
	}
	// User processes dominate scheduled time; their rows carry real names.
	found := false
	for _, r := range rows[:3] {
		if strings.HasPrefix(r.Name, "sdet") || strings.HasPrefix(r.Name, "/sdet") {
			found = true
		}
	}
	if !found {
		t.Errorf("top rows lack sdet scripts:\n%s", overviewText(rows[:3]))
	}
}

// TestReportRowsAreTheFmtRows: the overview and memory hot-spot rows are
// appended by hand into one reused line and must not differ by a byte from
// the fmt verbs they replaced, over rows the reports never produce too:
// names past the column, multi-byte names, zeros, and values near 2^64
// (whose float rendering is twenty digits).
func TestReportRowsAreTheFmtRows(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	names := []string{"", "sh", "exactly14runes", "a-name-longer-than-fourteen", "größe", "日本語のプロセス名前", "ÜBERLÄNGE_ÜBERLÄNGE", "tab\there"}
	value := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return ^uint64(0) - uint64(rng.Intn(1000))
		case 2:
			return uint64(rng.Intn(100000))
		case 3:
			return 1<<63 + uint64(rng.Int63n(1<<62))
		}
		return rng.Uint64() >> rng.Intn(64)
	}
	for round := 0; round < 200; round++ {
		var rows []ProcSummary
		var mem MemReport
		for n := rng.Intn(6); n > 0; n-- {
			name := names[rng.Intn(len(names))]
			rows = append(rows, ProcSummary{Pid: value(), Name: name, UserNs: value(), KernelNs: value(),
				IPCNs: value(), LockNs: value(), Events: value()})
			mem.Rows = append(mem.Rows, MemRow{Name: name, Cycles: value(), Misses: value(), Remote: value()})
		}
		mem.Samples = rng.Intn(1000)
		mem.Totals = MemRow{Cycles: value(), Misses: value(), Remote: value()}

		var want strings.Builder
		fmt.Fprintf(&want, "%6s %-14s %10s %10s %10s %10s %10s %8s\n",
			"pid", "name", "user(us)", "kernel(us)", "ipc(us)", "lock(us)", "total(us)", "events")
		us := func(ns uint64) float64 { return float64(ns) / 1000 }
		for _, r := range rows {
			fmt.Fprintf(&want, "%6d %-14s %10.1f %10.1f %10.1f %10.1f %10.1f %8d\n",
				r.Pid, r.Name, us(r.UserNs), us(r.KernelNs), us(r.IPCNs), us(r.LockNs), us(r.TotalNs()), r.Events)
		}
		if got := overviewText(rows); got != want.String() {
			t.Fatalf("round %d: overview differs from the fmt rendering\n got:\n%s\nwant:\n%s", round, got, want.String())
		}

		top := rng.Intn(len(mem.Rows) + 2)
		want.Reset()
		fmt.Fprintf(&want, "memory hot spots (%d hwc samples)\n%10s %10s %10s %8s  method\n",
			mem.Samples, "misses", "remote", "cycles", "mpkc")
		shown := mem.Rows
		if top > 0 && top < len(shown) {
			shown = shown[:top]
		}
		for _, r := range shown {
			fmt.Fprintf(&want, "%10d %10d %10d %8.2f  %s\n", r.Misses, r.Remote, r.Cycles, r.MPKC(), r.Name)
		}
		fmt.Fprintf(&want, "%10d %10d %10d %8.2f  TOTAL\n", mem.Totals.Misses, mem.Totals.Remote, mem.Totals.Cycles, mem.Totals.MPKC())
		var got strings.Builder
		if err := mem.Format(&got, top); err != nil || got.String() != want.String() {
			t.Fatalf("round %d: memory report (top %d) differs from the fmt rendering (%v)\n got:\n%s\nwant:\n%s", round, top, err, got.String(), want.String())
		}
	}
}

// overviewText is the overview table FormatOverview writes.
func overviewText(rows []ProcSummary) string {
	var b strings.Builder
	FormatOverview(&b, rows)
	return b.String()
}
