package core

import (
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestCodegenPin holds the logging path to the instruction counts the
// compiler's own listing gives (EXPERIMENTS.md "§3.2 cost table"): the
// paper states its cost claim as an instruction count, and the listing
// gives one without hardware counters. Each bound is an upper bound, so a
// compiler that emits less still passes; a change that adds an atomic, a
// call or an allocation to the path fails.
func TestCodegenPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pinned listing is amd64's; this is %s", runtime.GOARCH)
	}
	out, err := exec.Command("go", "build", "-gcflags=k42trace/internal/core=-S", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -S: %v\n%s", err, out)
	}
	fns := listing(string(out))

	// The disabled path: the mask check is the paper's four instructions
	// plus one zero-extend, and calls nothing.
	enabled := fns["CPU.Enabled"]
	if enabled == nil {
		t.Fatal("no CPU.Enabled in the listing")
	}
	n := 0
	for _, in := range enabled {
		if in.op == "RET" {
			break
		}
		if in.op == "CALL" {
			t.Errorf("CPU.Enabled calls %s", in.args)
		}
		n++
	}
	if n > 5 {
		t.Errorf("CPU.Enabled is %d instructions before RET, want at most 5", n)
	}

	// The enabled path: the locked instructions each body holds — a LOCK
	// prefix, or an XCHG with a memory operand, which is locked implicitly.
	for _, pin := range []struct {
		fn     string
		locked int
	}{
		{"(*Arena).logN", 3},
		{"(*Arena).begin", 3},
		{"(*Arena).reserve", 3},
		{"(*Arena).commit", 3}, // 2 LOCK + 1 XCHGQ
	} {
		body := fns[pin.fn]
		if body == nil {
			t.Errorf("no %s in the listing", pin.fn)
			continue
		}
		locked := 0
		for _, in := range body {
			if in.op == "LOCK" || strings.HasPrefix(in.op, "XCHG") && strings.Contains(in.args, "(") {
				locked++
			}
		}
		if locked > pin.locked {
			t.Errorf("%s holds %d locked instructions, want at most %d", pin.fn, locked, pin.locked)
		}
	}

	// No allocation, interface conversion or write barrier on the path.
	noRuntime := regexp.MustCompile(`runtime\.(newobject|convT|gcWriteBarrier)\w*`)
	for _, fn := range []string{"(*Arena).logN", "(*Arena).begin", "(*Arena).reserve", "(*Arena).commit",
		"CPU.Log0", "CPU.Log1", "CPU.Log2", "CPU.Log3", "CPU.Log4"} {
		for _, in := range fns[fn] {
			if m := noRuntime.FindString(in.args); m != "" {
				t.Errorf("%s references %s", fn, m)
			}
		}
		if fns[fn] == nil {
			t.Errorf("no %s in the listing", fn)
		}
	}
}

type instr struct{ op, args string }

// listing parses a -S listing into each core function's instructions,
// keyed by name without the package path, pseudo-instructions dropped.
// A relocation line counts as an instruction whose args name its target.
func listing(s string) map[string][]instr {
	const pkg = "k42trace/internal/core."
	inst := regexp.MustCompile(`^\t0x[0-9a-f]+ \d{5} \([^)]*\)\t(\S+)\t?(.*)$`)
	fns := map[string][]instr{}
	var cur string
	for _, line := range strings.Split(s, "\n") {
		if name, ok := strings.CutPrefix(line, pkg); ok {
			cur = ""
			if name, _, ok := strings.Cut(name, " STEXT"); ok {
				cur = name
				fns[cur] = []instr{}
			}
			continue
		}
		if cur == "" {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			cur = ""
			continue
		}
		if m := inst.FindStringSubmatch(line); m != nil {
			switch m[1] {
			case "TEXT", "FUNCDATA", "PCDATA", "NOP":
			default:
				fns[cur] = append(fns[cur], instr{m[1], m[2]})
			}
		} else if rel, ok := strings.CutPrefix(line, "\trel "); ok {
			fns[cur] = append(fns[cur], instr{"rel", rel})
		}
	}
	return fns
}
