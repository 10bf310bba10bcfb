package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	ktrace "k42trace"
	"k42trace/internal/ksim"
	"k42trace/internal/stream"
)

const corpusDir = "../../testdata/corpus"

func corpus(name string) string { return filepath.Join(corpusDir, name) }

// ktraceRun runs one ktrace command line in-process.
func ktraceRun(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(&out, &errb, args)
	return out.String(), errb.String(), code
}

// traceVerbs is one representative command line per verb that reads a
// trace file; "F" stands for the file under test.
var traceVerbs = [][]string{
	{"lockstat", "F"},
	{"timebreak", "-all", "F"},
	{"timebreak", "-pid", "3", "F"},
	{"profbreak", "-all", "F"},
	{"memhot", "F"},
	{"lockorder", "F"},
	{"list", "-n", "400", "F"},
	{"stat", "F"},
	{"kmon", "-at", "0.001", "F"},
	{"check", "F"},
	{"diff", "F", corpus("tuned.ktr")},
	{"crashdump", "-tail", "3", "F"},
}

// withFlags returns cmd with flags inserted after the verb and every "F"
// replaced by file.
func withFlags(cmd []string, file string, flags ...string) []string {
	args := append([]string{cmd[0]}, flags...)
	for _, a := range cmd[1:] {
		if a == "F" {
			a = file
		}
		args = append(args, a)
	}
	return args
}

// TestWorkerCountParity proves -j is a pure speed knob for every verb:
// stdout, stderr and exit status are identical at 1 and 8 workers, on the
// sound corpus traces through the strict reader and on the damaged ones
// through -salvage.
func TestWorkerCountParity(t *testing.T) {
	inputs := []struct {
		file  string
		flags []string
	}{
		{"clean.ktr", nil},
		{"crosscpu-io.ktr", nil},
		{"coarse.ktr", nil},
		{"garbled.ktr", []string{"-salvage"}},
		{"truncated.ktr", []string{"-salvage"}},
	}
	for _, in := range inputs {
		for _, cmd := range traceVerbs {
			name := strings.Join(cmd[:len(cmd)-1], " ") + "/" + in.file
			t.Run(name, func(t *testing.T) {
				at := func(j string) (string, string, int) {
					return ktraceRun(withFlags(cmd, corpus(in.file), append([]string{"-j", j}, in.flags...)...)...)
				}
				out1, err1, rc1 := at("1")
				out8, err8, rc8 := at("8")
				if out1 == "" {
					t.Fatalf("no output (exit %d): %s", rc1, err1)
				}
				if rc1 > 1 {
					t.Fatalf("exit %d: %s", rc1, err1)
				}
				if out1 != out8 {
					t.Errorf("stdout differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", out1, out8)
				}
				if err1 != err8 || rc1 != rc8 {
					t.Errorf("-j 1: exit %d stderr %q; -j 8: exit %d stderr %q", rc1, err1, rc8, err8)
				}
			})
		}
	}
}

// TestDiffGoldens pins diff's two renderings of the fixture pair to the
// checked-in goldens (which `go test . -update` at the repo root owns).
func TestDiffGoldens(t *testing.T) {
	for golden, flags := range map[string][]string{
		"coarse-vs-tuned.diff.golden":     nil,
		"coarse-vs-tuned.diffjson.golden": {"-json"},
	} {
		want, err := os.ReadFile(corpus(golden))
		if err != nil {
			t.Fatal(err)
		}
		args := append(append([]string{"diff"}, flags...), corpus("coarse.ktr"), corpus("tuned.ktr"))
		got, stderr, code := ktraceRun(args...)
		if code != 0 || stderr != "" {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
		}
		if got != string(want) {
			t.Errorf("%v diverged from %s", args, golden)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate", corpus("clean.ktr")}} {
		stdout, stderr, code := ktraceRun(args...)
		if code != 2 || stdout != "" {
			t.Errorf("ktrace %v: exit %d stdout %q, want 2 and none", args, code, stdout)
		}
		for _, v := range verbs {
			if !strings.Contains(stderr, "\n  "+v.name+" ") {
				t.Errorf("ktrace %v: verb list on stderr misses %s:\n%s", args, v.name, stderr)
			}
		}
	}
	for _, v := range verbs {
		for _, args := range [][]string{{v.name}, {v.name, "a", "b", "c"}, {v.name, "-no-such-flag", "a"}} {
			stdout, stderr, code := ktraceRun(args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, "usage: ktrace "+v.name+" ") {
				t.Errorf("ktrace %v: exit %d stdout %q stderr %q, want 2 and the usage", args, code, stdout, stderr)
			}
		}
	}
	_, stderr, code := ktraceRun("timebreak", corpus("clean.ktr"))
	if code != 2 || !strings.Contains(stderr, "usage: ktrace timebreak (-pid N | -all)") {
		t.Errorf("timebreak without -pid or -all: exit %d stderr %q", code, stderr)
	}
	_, stderr, code = ktraceRun("list", "-major", "sched,nope", corpus("clean.ktr"))
	if code != 2 || !strings.Contains(stderr, `ktrace list: unknown major "nope"`) {
		t.Errorf("list -major sched,nope: exit %d stderr %q", code, stderr)
	}
	// Negative counts, times and windows, selectors below their -1 "all",
	// and column counts past the ceiling are usage errors, refused before
	// the file is read.
	for _, args := range [][]string{
		{"crashdump", "-tail", "-1", "F"},
		{"list", "-from", "-1", "F"},
		{"list", "-to", "-1", "F"},
		{"list", "-n", "-3", "F"},
		{"list", "-pid", "-5", "F"},
		{"list", "-cpu", "-7", "F"},
		{"kmon", "-at", "0.0001", "-around", "-2", "F"},
		{"kmon", "-at", "0.0001", "-around", "0", "F"},
		{"kmon", "-width", "200000000", "F"},
		{"diff", "-windows", "200000000", "F", "F"},
	} {
		args = withFlags(args, corpus("clean.ktr"))
		stdout, stderr, code := ktraceRun(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage: ktrace "+args[0]+" ") {
			t.Errorf("ktrace %v: exit %d stdout %q stderr %q, want 2 and the usage", args, code, stdout, stderr)
		}
	}
}

// TestBadValueBeforeMissingFile: a flag value no run can take is a usage
// error even when the file is missing too, because it is refused before the
// file is opened.
func TestBadValueBeforeMissingFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.ktr")
	for _, bad := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"lockstat", "-sort", "nope", missing}, `ktrace lockstat: unknown sort key "nope"` + "\nusage: ktrace lockstat "},
		{[]string{"list", "-major", "sched,nope", missing}, `ktrace list: unknown major "nope"` + "\nusage: ktrace list "},
	} {
		stdout, stderr, code := ktraceRun(bad.args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, bad.stderr) {
			t.Errorf("ktrace %v: exit %d stdout %q stderr %q, want 2 and %q", bad.args, code, stdout, stderr, bad.stderr)
		}
	}
}

func TestUnreadableFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.ktr")
	cmds := append([][]string{{"check", "-shm", "F"}}, traceVerbs...)
	for _, cmd := range cmds {
		for _, flags := range [][]string{nil, {"-salvage"}} {
			args := withFlags(cmd, missing, flags...)
			stdout, stderr, code := ktraceRun(args...)
			if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "ktrace "+cmd[0]+": ") {
				t.Errorf("ktrace %v: exit %d stdout %q stderr %q, want 1 and a prefixed error", args, code, stdout, stderr)
			}
		}
	}
	// The strict reader refuses damage; only -salvage reads through it.
	for _, cmd := range traceVerbs {
		if _, stderr, code := ktraceRun(withFlags(cmd, corpus("garbled.ktr"))...); code != 1 || stderr == "" {
			t.Errorf("ktrace %v on garbled.ktr without -salvage: exit %d stderr %q", cmd, code, stderr)
		}
	}
}

// writeABBATrace writes a two-CPU trace in which CPU 0 takes lock A then B
// and CPU 1 takes B then A.
func writeABBATrace(t *testing.T, path string) {
	t.Helper()
	tr := ktrace.MustNew(ktrace.Config{CPUs: 2, BufWords: 1024, NumBufs: 4, Mode: ktrace.Stream})
	tr.EnableAll()
	wait, err := ktrace.WriteTraceFile(tr, path)
	if err != nil {
		t.Fatal(err)
	}
	const lockA, lockB = 0xA, 0xB
	for cpu, order := range [][2]uint64{{lockA, lockB}, {lockB, lockA}} {
		c := tr.CPU(cpu)
		c.Log2(ktrace.MajorSched, ksim.EvSchedSwitch, 0, uint64(5+cpu))
		c.Log1(ktrace.MajorLock, ksim.EvLockAcquire, order[0])
		c.Log4(ktrace.MajorLock, ksim.EvLockAcquired, order[1], 10, 1, uint64(7+cpu))
		c.Log2(ktrace.MajorLock, ksim.EvLockRelease, order[1], 5)
		c.Log2(ktrace.MajorLock, ksim.EvLockRelease, order[0], 5)
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFindingsExit: a finding is exit 1 with the report still on stdout,
// and diff's gate is exit 3.
func TestFindingsExit(t *testing.T) {
	dir := t.TempDir()
	abba := filepath.Join(dir, "abba.ktr")
	writeABBATrace(t, abba)
	rewritten := filepath.Join(dir, "rewritten.ktr")

	for _, c := range []struct {
		args   []string
		code   int
		stdout string // substring
		stderr string // substring; "" means stderr must be empty
	}{
		{[]string{"lockorder", abba}, 1, "POTENTIAL DEADLOCK", ""},
		{[]string{"lockorder", corpus("clean.ktr")}, 0, "ordering is consistent", ""},
		{[]string{"check", corpus("clean.ktr")}, 0, "trace is structurally sound", ""},
		{[]string{"check", "-salvage", corpus("clean.ktr")}, 0, "0 quarantined", ""},
		// An unclean salvage is exit 1 even though the rewrite succeeded,
		// and the report on stdout is the only account of the damage.
		{[]string{"check", "-salvage", "-o", rewritten, corpus("garbled.ktr")}, 1, "2 quarantined", ""},
		// The rewrite keeps block bytes, so the interior garble survives:
		// violations and skipped words fail the strict check.
		{[]string{"check", rewritten}, 1, "decode skipped 40 garbled words", ""},
		// Every other verb gets the damage warning from the shared opener.
		{[]string{"lockstat", rewritten}, 0, "total wait", "rewritten.ktr: warning: 40 garbled words skipped"},
		{[]string{"lockstat", "-salvage", corpus("garbled.ktr")}, 0, "total wait", "garbled.ktr: 2 blocks quarantined"},
		{[]string{"diff", "-max-divergence", "0.01", corpus("coarse.ktr"), corpus("tuned.ktr")}, 3,
			"divergence 0.297757", "ktrace diff: divergence 0.297757 exceeds threshold 0.010000"},
		{[]string{"diff", "-max-divergence", "0", corpus("coarse.ktr"), corpus("coarse.ktr")}, 0, "divergence 0.000000", ""},
	} {
		stdout, stderr, code := ktraceRun(c.args...)
		if code != c.code {
			t.Errorf("ktrace %v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr)
		}
		if !strings.Contains(stdout, c.stdout) {
			t.Errorf("ktrace %v: stdout misses %q:\n%s", c.args, c.stdout, stdout)
		}
		if !strings.Contains(stderr, c.stderr) || (c.stderr == "") != (stderr == "") {
			t.Errorf("ktrace %v: stderr %q, want %q", c.args, stderr, c.stderr)
		}
	}
}

// TestKmonHTML pins the timeline exports' portability claims at the CLI,
// for kmon's page and for diff's stacked one: two runs write the same
// bytes, and the page references no network and embeds the mask epochs.
// kmon's SVG draws the epochs too, as dashed lines.
func TestKmonHTML(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "mon.svg")
	for _, cmd := range [][]string{
		{"kmon", "-svg", svg, corpus("coarse.ktr")},
		{"diff", corpus("coarse.ktr"), corpus("tuned.ktr")},
	} {
		var pages [2][]byte
		for i := range pages {
			path := filepath.Join(dir, strconv.Itoa(i)+".html")
			if _, stderr, code := ktraceRun(withFlags(cmd, "", "-html", path)...); code != 0 {
				t.Fatalf("%s -html: exit %d: %s", cmd[0], code, stderr)
			}
			var err error
			if pages[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(pages[0], pages[1]) {
			t.Errorf("%s -html is not deterministic across runs", cmd[0])
		}
		for _, sub := range []string{"http://", "https://"} {
			if bytes.Contains(pages[0], []byte(sub)) {
				t.Errorf("%s -html references the network: contains %q", cmd[0], sub)
			}
		}
		if !bytes.Contains(pages[0], []byte("maskEpochs")) {
			t.Errorf("%s -html does not embed the run data", cmd[0])
		}
	}
	if img, err := os.ReadFile(svg); err != nil || !bytes.Contains(img, []byte("stroke-dasharray")) {
		t.Errorf("kmon -svg draws no mask epoch as a dashed line (%v)", err)
	}
}

// TestWindowOnZeroHzHeader: after a destroyed file header, check -salvage -o
// writes a trace whose header clock rate is zero; times still print at the
// assumed nanosecond rate, so -from/-to/-at must select by that same rate.
func TestWindowOnZeroHzHeader(t *testing.T) {
	dir := t.TempDir()
	img, err := os.ReadFile(corpus("clean.ktr"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ { // the file header's magic, geometry and clock rate
		img[i] = 0
	}
	damaged, rewritten := filepath.Join(dir, "damaged.ktr"), filepath.Join(dir, "rewritten.ktr")
	if err := os.WriteFile(damaged, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, _, code := ktraceRun("check", "-salvage", "-o", rewritten, damaged); code != 1 || !strings.Contains(out, "clockHz=0") {
		t.Fatalf("salvage rewrite: exit %d:\n%s", code, out)
	}
	if out, _, _ := ktraceRun("stat", rewritten); !strings.Contains(out, "clock 0 Hz") {
		t.Fatalf("rewritten header does not record 0 Hz:\n%s", out)
	}

	// Listings print times to 100 ns, so a printed time may sit half a
	// digit outside the tick window it was selected by.
	const from, to, printEps = 0.0005, 0.0006, 0.5e-7
	checkWindow := func(what, listing string) {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(listing), "\n")
		for _, line := range lines {
			time, _, _ := strings.Cut(line, " ")
			ts, err := strconv.ParseFloat(time, 64)
			if err != nil || ts < from-printEps || ts >= to+printEps {
				t.Fatalf("%s printed a line outside [%v,%v): %q", what, from, to, line)
			}
		}
	}
	// The rewrite keeps the blocks, so the intact original is the oracle.
	want, _, _ := ktraceRun("list", "-from", "0.0005", "-to", "0.0006", corpus("clean.ktr"))
	got, _, code := ktraceRun("list", "-from", "0.0005", "-to", "0.0006", rewritten)
	all, _, _ := ktraceRun("list", rewritten)
	if code != 0 || got != want || len(got) >= len(all) {
		t.Errorf("list -from %v -to %v on the 0 Hz image: exit %d, %d bytes; the intact trace gives %d, no window %d",
			from, to, code, len(got), len(want), len(all))
	}
	checkWindow("list -from -to", got)

	// kmon: the zoomed timeline covers the window, and -at lists around it.
	out, _, _ := ktraceRun("kmon", "-from", "0.0005", "-to", "0.0006", "-at", "0.00055", "-around", "0.1", rewritten)
	if !strings.HasPrefix(out, "timeline 0.000500s .. 0.000600s") {
		t.Errorf("kmon -from/-to ignored the window:\n%.200s", out)
	}
	_, listing, _ := strings.Cut(out, "events around 0.000550s:\n")
	checkWindow("kmon -at 0.00055 -around 0.1", listing)
}

// TestStatListsAnomalousBlocks: stat lists a block its writer flagged
// anomalous (a stuck seal) through the strict reader, and under -salvage
// from the salvage scan, even when the file's tail is cut so that the
// strict reader refuses it.
func TestStatListsAnomalousBlocks(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		src   string
		flags []string
	}{
		{"clean.ktr", nil},
		{"truncated.ktr", []string{"-salvage"}},
	} {
		img, err := os.ReadFile(corpus(c.src))
		if err != nil {
			t.Fatal(err)
		}
		meta, err := stream.ParseFileHeader(img)
		if err != nil {
			t.Fatal(err)
		}
		// Block 0's header: magic, CPU | flags<<16 | words<<32, seq, committed.
		h := img[meta.Geometry().FileHeaderBytes:]
		word := func(i int) uint64 { return binary.LittleEndian.Uint64(h[8*i:]) }
		binary.LittleEndian.PutUint64(h[8:], word(1)|uint64(stream.FlagAnomalous)<<16)
		path := filepath.Join(dir, c.src)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		args := withFlags([]string{"stat", "F"}, path, c.flags...)
		stdout, stderr, code := ktraceRun(args...)
		want := fmt.Sprintf("\nanomalous blocks (commit-count mismatches): 1\n  cpu %d seq %d: committed %d of %d words\n",
			uint16(word(1)), word(2), word(3), uint32(word(1)>>32))
		if code != 0 || !strings.Contains(stdout, want) {
			t.Errorf("ktrace %v: exit %d (stderr %q), stdout misses %q:\n%s", args, code, stderr, want, stdout)
		}
	}
}

// TestListMajorNames: -major takes the names -mask takes, in any case.
func TestListMajorNames(t *testing.T) {
	upper, _, _ := ktraceRun("list", "-n", "200", "-major", "SCHED,LOCK", corpus("clean.ktr"))
	lower, _, code := ktraceRun("list", "-n", "200", "-major", "sched, lock", corpus("clean.ktr"))
	if code != 0 || upper == "" || upper != lower {
		t.Errorf("list -major sched,lock (exit %d) differs from -major SCHED,LOCK", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(upper), "\n") {
		if name := strings.Fields(line)[1]; !strings.HasPrefix(name, "TRC_SCHED_") && !strings.HasPrefix(name, "TRC_LOCK_") {
			t.Fatalf("list -major SCHED,LOCK printed %s", name)
		}
	}
}

// TestCrashdumpDemoRoundTrip: the demo dump is a trace file. crashdump
// lists it, and the verbs that read any trace read it too; the salvager
// finds nothing to quarantine in it.
func TestCrashdumpDemoRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.ktr")
	if out, stderr, code := ktraceRun("crashdump", "-demo", path); code != 0 || !strings.Contains(out, "wrote demo crash dump") {
		t.Fatalf("crashdump -demo: exit %d: %s", code, stderr)
	}
	out, stderr, code := ktraceRun("crashdump", "-tail", "3", path)
	if code != 0 || !strings.HasPrefix(out, "crash dump: 2 CPUs, 1024-word buffers") || strings.Count(out, "\n--- cpu ") != 2 {
		t.Errorf("crashdump: exit %d stderr %q:\n%s", code, stderr, out)
	}
	for _, args := range [][]string{{"stat"}, {"list", "-n", "5"}, {"kmon"}, {"lockstat"}, {"check"}, {"check", "-salvage"}} {
		args = append(args, path)
		out, stderr, code := ktraceRun(args...)
		if code != 0 || out == "" || stderr != "" {
			t.Errorf("ktrace %v on the demo dump: exit %d stderr %q", args, code, stderr)
		}
		if args[1] == "-salvage" && !strings.Contains(out, " 0 quarantined,") {
			t.Errorf("ktrace %v quarantined blocks of the demo dump:\n%s", args, out)
		}
	}
}
