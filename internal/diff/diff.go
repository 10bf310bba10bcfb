package diff

import (
	"math"
	"sort"
	"strings"

	"k42trace/internal/analysis"
	"k42trace/internal/event"
)

// Options tunes a Diff.
type Options struct {
	// Workers is the analysis fan-out width (-j); <=0 means GOMAXPROCS.
	Workers int
	// Windows subdivides the aligned range for divergence scoring
	// (default 32).
	Windows int
	// Anchors are event names to align the runs on; empty means mask
	// epochs when both runs have them, else whole spans.
	Anchors []string
	// LabelA and LabelB name the runs in reports (default "A"/"B").
	LabelA, LabelB string
}

// RunInfo summarizes one run and its aligned range (in the run's own
// timebase).
type RunInfo struct {
	Label   string  `json:"label"`
	Events  int     `json:"events"`
	CPUs    int     `json:"cpus"`
	ClockHz uint64  `json:"clockHz"`
	Start   uint64  `json:"start"`
	End     uint64  `json:"end"`
	SpanSec float64 `json:"spanSec"`
}

// ModeDelta is one row of the per-mode occupancy comparison over the
// aligned ranges. Shares are fractions of each run's accounted CPU time,
// so the delta is meaningful even when the runs' durations differ.
type ModeDelta struct {
	Mode       string  `json:"mode"`
	ANs        uint64  `json:"aNs"`
	BNs        uint64  `json:"bNs"`
	AShare     float64 `json:"aShare"`
	BShare     float64 `json:"bShare"`
	DeltaNs    int64   `json:"deltaNs"`
	DeltaShare float64 `json:"deltaShare"`
}

// CPUDelta compares one CPU between the runs: how busy it was and how
// much of its time went to lock waiting. CPUs present in only one run
// compare against zero.
type CPUDelta struct {
	CPU            int     `json:"cpu"`
	ABusyShare     float64 `json:"aBusyShare"`
	BBusyShare     float64 `json:"bBusyShare"`
	DeltaBusyShare float64 `json:"deltaBusyShare"`
	ALockShare     float64 `json:"aLockShare"`
	BLockShare     float64 `json:"bLockShare"`
	DeltaLockShare float64 `json:"deltaLockShare"`
}

// MajorDelta compares event volume per major class inside the aligned
// ranges.
type MajorDelta struct {
	Major  string `json:"major"`
	ACount uint64 `json:"aCount"`
	BCount uint64 `json:"bCount"`
	Delta  int64  `json:"delta"`
}

// LockDelta compares contention on one lock-acquisition call chain. Rows
// key on the resolved chain (not raw lock IDs, which are run-local), so a
// global lock in one run lines up against its per-CPU descendants in the
// other — exactly the coarse-vs-tuned question.
type LockDelta struct {
	// Chain is the innermost acquisition frame; Frames the full chain.
	Chain       string   `json:"chain"`
	Frames      []string `json:"frames"`
	AWaitNs     uint64   `json:"aWaitNs"`
	BWaitNs     uint64   `json:"bWaitNs"`
	ACount      uint64   `json:"aCount"`
	BCount      uint64   `json:"bCount"`
	ASpins      uint64   `json:"aSpins"`
	BSpins      uint64   `json:"bSpins"`
	AHoldNs     uint64   `json:"aHoldNs"`
	BHoldNs     uint64   `json:"bHoldNs"`
	DeltaWaitNs int64    `json:"deltaWaitNs"`
}

// ProfileDelta compares one symbol's share of the PC-sample histograms.
type ProfileDelta struct {
	Sym        string  `json:"sym"`
	ACount     int     `json:"aCount"`
	BCount     int     `json:"bCount"`
	AShare     float64 `json:"aShare"`
	BShare     float64 `json:"bShare"`
	DeltaShare float64 `json:"deltaShare"`
}

// ProcDelta compares one process's scheduled-time breakdown (matched by
// process name — pids are run-local).
type ProcDelta struct {
	Name         string `json:"name"`
	ATotalNs     uint64 `json:"aTotalNs"`
	BTotalNs     uint64 `json:"bTotalNs"`
	AUserNs      uint64 `json:"aUserNs"`
	BUserNs      uint64 `json:"bUserNs"`
	AKernelNs    uint64 `json:"aKernelNs"`
	BKernelNs    uint64 `json:"bKernelNs"`
	AIPCNs       uint64 `json:"aIpcNs"`
	BIPCNs       uint64 `json:"bIpcNs"`
	ALockNs      uint64 `json:"aLockNs"`
	BLockNs      uint64 `json:"bLockNs"`
	DeltaTotalNs int64  `json:"deltaTotalNs"`
}

// WindowScore is one window's divergence: half the L1 distance between
// the runs' per-mode occupancy-share vectors in the corresponding windows
// (total-variation distance, 0 = identical mix, 1 = disjoint).
type WindowScore struct {
	Index int `json:"index"`
	// AFrom and BFrom are the window starts in each run's own timebase.
	AFrom uint64  `json:"aFrom"`
	BFrom uint64  `json:"bFrom"`
	Score float64 `json:"score"`
	// TopMode is the mode with the largest share shift in this window,
	// with its signed B-A shift.
	TopMode      string  `json:"topMode"`
	TopModeDelta float64 `json:"topModeDelta"`
}

// Report is the full differential analysis of two runs. All slices are
// sorted by descending |delta| with deterministic tie-breaks, so the
// report is byte-stable for any worker count.
type Report struct {
	A     RunInfo   `json:"a"`
	B     RunInfo   `json:"b"`
	Align Alignment `json:"align"`
	// Divergence is the mean window score over the aligned ranges: 0 for
	// identical runs, approaching 1 as the runs spend their time in
	// completely different modes.
	Divergence float64        `json:"divergence"`
	Modes      []ModeDelta    `json:"modes"`
	CPUs       []CPUDelta     `json:"cpus"`
	Majors     []MajorDelta   `json:"majors"`
	Locks      []LockDelta    `json:"locks"`
	Profile    []ProfileDelta `json:"profile"`
	Procs      []ProcDelta    `json:"procs"`
	Windows    []WindowScore  `json:"windows"`
}

// Diff aligns and compares two traces. Both traces are read-only; the
// analyses fan out over per-CPU streams with opts.Workers goroutines each,
// and every aggregate is a deterministic merge, so the report is identical
// for any worker count.
func Diff(a, b *analysis.Trace, opts Options) *Report {
	if opts.Windows <= 0 {
		opts.Windows = 32
	}
	if opts.LabelA == "" {
		opts.LabelA = "A"
	}
	if opts.LabelB == "" {
		opts.LabelB = "B"
	}
	al, aStart, aEnd, bStart, bEnd := align(a, b, opts.Anchors)
	rep := &Report{
		A:     runInfo(a, opts.LabelA, aStart, aEnd),
		B:     runInfo(b, opts.LabelB, bStart, bEnd),
		Align: al,
	}
	// Occupancy over the aligned ranges. End+1 keeps the final event
	// inside the half-open accounting range.
	occA := a.OccupancyRangeParallel(aStart, aEnd+1, opts.Windows, opts.Workers)
	occB := b.OccupancyRangeParallel(bStart, bEnd+1, opts.Windows, opts.Workers)
	rep.Modes = modeDeltas(occA, occB)
	rep.CPUs = cpuDeltas(occA, occB)
	rep.Majors = majorDeltas(occA, occB)
	rep.Windows, rep.Divergence = windowScores(occA, occB)
	// Whole-run aggregates, matched by stable cross-run keys.
	rep.Locks = lockDeltas(a, b, opts.Workers)
	rep.Profile = profileDeltas(a, b, opts.Workers)
	rep.Procs = procDeltas(a, b, opts.Workers)
	return rep
}

func runInfo(t *analysis.Trace, label string, start, end uint64) RunInfo {
	return RunInfo{
		Label:   label,
		Events:  len(t.Events),
		CPUs:    analysis.MaxCPU(t.Events) + 1,
		ClockHz: t.ClockHz,
		Start:   start,
		End:     end,
		SpanSec: t.Seconds(end - start),
	}
}

func modeDeltas(occA, occB *analysis.Occupancy) []ModeDelta {
	sa, sb := occA.ModeShare(), occB.ModeShare()
	out := make([]ModeDelta, 0, analysis.NumModes)
	for m := 0; m < analysis.NumModes; m++ {
		out = append(out, ModeDelta{
			Mode:       analysis.ModeName(m),
			ANs:        occA.ModeNs[m],
			BNs:        occB.ModeNs[m],
			AShare:     sa[m],
			BShare:     sb[m],
			DeltaNs:    int64(occB.ModeNs[m]) - int64(occA.ModeNs[m]),
			DeltaShare: sb[m] - sa[m],
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if d1, d2 := math.Abs(out[i].DeltaShare), math.Abs(out[j].DeltaShare); d1 != d2 {
			return d1 > d2
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

func cpuDeltas(occA, occB *analysis.Occupancy) []CPUDelta {
	n := len(occA.CPUMode)
	if len(occB.CPUMode) > n {
		n = len(occB.CPUMode)
	}
	out := make([]CPUDelta, 0, n)
	for c := 0; c < n; c++ {
		var av, bv [analysis.NumModes]uint64
		if c < len(occA.CPUMode) {
			av = occA.CPUMode[c]
		}
		if c < len(occB.CPUMode) {
			bv = occB.CPUMode[c]
		}
		aBusy, aLock := busyLockShares(av)
		bBusy, bLock := busyLockShares(bv)
		out = append(out, CPUDelta{
			CPU:            c,
			ABusyShare:     aBusy,
			BBusyShare:     bBusy,
			DeltaBusyShare: bBusy - aBusy,
			ALockShare:     aLock,
			BLockShare:     bLock,
			DeltaLockShare: bLock - aLock,
		})
	}
	return out
}

// busyLockShares reduces one CPU's mode vector to its non-idle share and
// lock-wait share of accounted time.
func busyLockShares(v [analysis.NumModes]uint64) (busy, lock float64) {
	var total, busyNs uint64
	for m, ns := range v {
		total += ns
		if analysis.ModeKind(m) != analysis.ModeIdle {
			busyNs += ns
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(busyNs) / float64(total),
		float64(v[analysis.ModeLockWait]) / float64(total)
}

func majorDeltas(occA, occB *analysis.Occupancy) []MajorDelta {
	var out []MajorDelta
	for m := 0; m < event.NumMajors; m++ {
		ac, bc := occA.MajorCount[m], occB.MajorCount[m]
		if ac == 0 && bc == 0 {
			continue
		}
		out = append(out, MajorDelta{
			Major:  event.Major(m).String(),
			ACount: ac,
			BCount: bc,
			Delta:  int64(bc) - int64(ac),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if d1, d2 := abs64(out[i].Delta), abs64(out[j].Delta); d1 != d2 {
			return d1 > d2
		}
		return out[i].Major < out[j].Major
	})
	return out
}

func windowScores(occA, occB *analysis.Occupancy) ([]WindowScore, float64) {
	n := occA.Windows
	if occB.Windows < n {
		n = occB.Windows
	}
	out := make([]WindowScore, 0, n)
	var sum float64
	aSpan, bSpan := occA.End-occA.Start, occB.End-occB.Start
	for w := 0; w < n; w++ {
		va, vb := occA.WindowShare(w), occB.WindowShare(w)
		var tv, topDelta float64
		top := 0
		for m := 0; m < analysis.NumModes; m++ {
			d := vb[m] - va[m]
			tv += math.Abs(d)
			if math.Abs(d) > math.Abs(topDelta) {
				topDelta, top = d, m
			}
		}
		tv /= 2
		sum += tv
		out = append(out, WindowScore{
			Index:        w,
			AFrom:        occA.Start + uint64(w)*aSpan/uint64(occA.Windows),
			BFrom:        occB.Start + uint64(w)*bSpan/uint64(occB.Windows),
			Score:        tv,
			TopMode:      analysis.ModeName(top),
			TopModeDelta: topDelta,
		})
	}
	if n == 0 {
		return out, 0
	}
	return out, sum / float64(n)
}

func lockDeltas(a, b *analysis.Trace, workers int) []LockDelta {
	type side struct {
		wait, count, spins, hold uint64
		frames                   []string
	}
	collect := func(t *analysis.Trace) map[string]*side {
		rep := t.LockStatParallel(workers)
		out := map[string]*side{}
		for _, row := range rep.Rows {
			frames := t.ChainFrames(row.ChainID)
			key := strings.Join(frames, " < ")
			s := out[key]
			if s == nil {
				s = &side{frames: frames}
				out[key] = s
			}
			s.wait += row.TotalWaitNs
			s.count += row.Count
			s.spins += row.Spins
			s.hold += row.HoldNs
		}
		return out
	}
	sa, sb := collect(a), collect(b)
	keys := unionKeys(sa, sb)
	out := make([]LockDelta, 0, len(keys))
	for _, k := range keys {
		va, vb := sa[k], sb[k]
		if va == nil {
			va = &side{frames: vb.frames}
		}
		if vb == nil {
			vb = &side{frames: va.frames}
		}
		out = append(out, LockDelta{
			Chain:       va.frames[0],
			Frames:      va.frames,
			AWaitNs:     va.wait,
			BWaitNs:     vb.wait,
			ACount:      va.count,
			BCount:      vb.count,
			ASpins:      va.spins,
			BSpins:      vb.spins,
			AHoldNs:     va.hold,
			BHoldNs:     vb.hold,
			DeltaWaitNs: int64(vb.wait) - int64(va.wait),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if d1, d2 := abs64(out[i].DeltaWaitNs), abs64(out[j].DeltaWaitNs); d1 != d2 {
			return d1 > d2
		}
		return strings.Join(out[i].Frames, "<") < strings.Join(out[j].Frames, "<")
	})
	return out
}

func profileDeltas(a, b *analysis.Trace, workers int) []ProfileDelta {
	allPids := ^uint64(0)
	pa := a.ProfileParallel(allPids, workers)
	pb := b.ProfileParallel(allPids, workers)
	type side struct{ count int }
	collect := func(p *analysis.Profile) (map[string]*side, int) {
		out := map[string]*side{}
		for _, row := range p.Rows {
			s := out[row.Name]
			if s == nil {
				s = &side{}
				out[row.Name] = s
			}
			s.count += row.Count
		}
		return out, p.Total
	}
	sa, totA := collect(pa)
	sb, totB := collect(pb)
	keys := unionKeys(sa, sb)
	out := make([]ProfileDelta, 0, len(keys))
	for _, k := range keys {
		var ac, bc int
		if s := sa[k]; s != nil {
			ac = s.count
		}
		if s := sb[k]; s != nil {
			bc = s.count
		}
		var aShare, bShare float64
		if totA > 0 {
			aShare = float64(ac) / float64(totA)
		}
		if totB > 0 {
			bShare = float64(bc) / float64(totB)
		}
		out = append(out, ProfileDelta{
			Sym:        k,
			ACount:     ac,
			BCount:     bc,
			AShare:     aShare,
			BShare:     bShare,
			DeltaShare: bShare - aShare,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if d1, d2 := math.Abs(out[i].DeltaShare), math.Abs(out[j].DeltaShare); d1 != d2 {
			return d1 > d2
		}
		return out[i].Sym < out[j].Sym
	})
	return out
}

func procDeltas(a, b *analysis.Trace, workers int) []ProcDelta {
	type side struct{ total, user, kernel, ipc, lock uint64 }
	collect := func(t *analysis.Trace) map[string]*side {
		out := map[string]*side{}
		for _, row := range t.OverviewParallel(workers) {
			s := out[row.Name]
			if s == nil {
				s = &side{}
				out[row.Name] = s
			}
			s.total += row.TotalNs()
			s.user += row.UserNs
			s.kernel += row.KernelNs
			s.ipc += row.IPCNs
			s.lock += row.LockNs
		}
		return out
	}
	sa, sb := collect(a), collect(b)
	keys := unionKeys(sa, sb)
	out := make([]ProcDelta, 0, len(keys))
	for _, k := range keys {
		va, vb := sa[k], sb[k]
		if va == nil {
			va = &side{}
		}
		if vb == nil {
			vb = &side{}
		}
		out = append(out, ProcDelta{
			Name:         k,
			ATotalNs:     va.total,
			BTotalNs:     vb.total,
			AUserNs:      va.user,
			BUserNs:      vb.user,
			AKernelNs:    va.kernel,
			BKernelNs:    vb.kernel,
			AIPCNs:       va.ipc,
			BIPCNs:       vb.ipc,
			ALockNs:      va.lock,
			BLockNs:      vb.lock,
			DeltaTotalNs: int64(vb.total) - int64(va.total),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if d1, d2 := abs64(out[i].DeltaTotalNs), abs64(out[j].DeltaTotalNs); d1 != d2 {
			return d1 > d2
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var out []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
