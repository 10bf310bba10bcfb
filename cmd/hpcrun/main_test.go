package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv makes this test binary run as hpcrun, so a test sees the exit
// status and the streams a shell would.
const childEnv = "HPCRUN_TEST_RUN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runHpcrun runs the command with args and returns its status and streams.
func runHpcrun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = &out, &errs
	if err := cmd.Run(); err != nil && !errors.As(err, new(*exec.ExitError)) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errs.String()
}

// TestUsage: a value outside its flag's domain is exit 2 with the flag
// named and nothing run, not a run that prints it back or fails in the
// simulator; -h is 0.
func TestUsage(t *testing.T) {
	for _, r := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-iters", "-1"}, `invalid value "-1" for flag -iters: want >= 1`},
		{[]string{"-ranks", "0"}, `invalid value "0" for flag -ranks: want >= 1`},
		{[]string{"-imbalance", "-5"}, `invalid value "-5" for flag -imbalance: want >= 0`},
	} {
		code, stdout, stderr := runHpcrun(t, r.args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, r.stderr+"\nUsage of hpcrun:\n") {
			t.Errorf("hpcrun %v: exit %d, stdout %q, stderr %q; want 2, none, and %q", r.args, code, stdout, stderr, r.stderr)
		}
	}
	if code, _, stderr := runHpcrun(t, "-h"); code != 0 || !strings.Contains(stderr, "\n  -iters int\n") {
		t.Errorf("hpcrun -h: exit %d, stderr %q", code, stderr)
	}
}

// TestSmallestRun: the least each count accepts runs.
func TestSmallestRun(t *testing.T) {
	code, stdout, stderr := runHpcrun(t, "-ranks", "1", "-iters", "1", "-imbalance", "0", "-compute", "0", "-exchange", "0")
	if code != 0 || !strings.HasPrefix(stdout, "ranks=1 iterations=1 ") || stderr != "" {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
