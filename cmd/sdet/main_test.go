package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv makes this test binary run as sdet, so a test sees the exit
// status and the streams a shell would.
const childEnv = "SDET_TEST_RUN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSdet runs the command with args and returns its status and streams.
func runSdet(t *testing.T, args ...string) (code int, stdout, stderr string) {
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

// TestUsage: a value outside its flag's domain — a count the workload
// would otherwise swap for its default among them — is exit 2 with the
// flag named and nothing run; -h is 0.
func TestUsage(t *testing.T) {
	for _, r := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-scripts", "-1"}, `invalid value "-1" for flag -scripts: want >= 1`},
		{[]string{"-cmds", "0"}, `invalid value "0" for flag -cmds: want >= 1`},
		{[]string{"-cpus", "4,x"}, `invalid value "4,x" for flag -cpus: bad cpu count "x"`},
		{[]string{"-cpus", "0"}, `invalid value "0" for flag -cpus: bad cpu count "0"`},
		{[]string{"-config", "tunned"}, `invalid value "tunned" for flag -config: want one of tuned, coarse`},
		{[]string{"-trace", "full"}, `invalid value "full" for flag -trace: want one of out, masked, on`},
	} {
		code, stdout, stderr := runSdet(t, r.args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, r.stderr+"\nUsage of sdet:\n") {
			t.Errorf("sdet %v: exit %d, stdout %q, stderr %q; want 2, none, and %q", r.args, code, stdout, stderr, r.stderr)
		}
	}
	if code, _, stderr := runSdet(t, "-h"); code != 0 || !strings.Contains(stderr, "\n  -scripts int\n") {
		t.Errorf("sdet -h: exit %d, stderr %q", code, stderr)
	}
}

// TestSmallestRun: the least each count accepts runs.
func TestSmallestRun(t *testing.T) {
	code, stdout, stderr := runSdet(t, "-cpus", "1", "-scripts", "1", "-cmds", "1")
	if code != 0 || !strings.HasPrefix(stdout, "cpus=1 config=tuned trace=") || stderr != "" {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
