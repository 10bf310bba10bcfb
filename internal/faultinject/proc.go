// Process-level fault injection: real child processes attached to a
// shared trace segment, killed with SIGKILL at the worst moment — after
// reserving buffer space, before logging it. The in-process
// WriterInjector simulates that state; these children make it real, with
// a separate address space dying and the daemon's pid-liveness reap and
// commit-count accounting left to clean up.
//
// The mechanism is test-binary re-exec: a TestMain that calls
// RunChildIfRequested first behaves normally for the parent run, but when
// the child environment variable is set the process becomes the fault
// child — it attaches to the segment named in the environment, runs its
// mode, and exits without ever reaching the test framework.
package faultinject

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
	"k42trace/internal/shm"
)

// ChildEnv selects the child mode; unset means "not a fault child".
const ChildEnv = "K42TRACE_SHM_CHILD"

// Child environment: the spec travels to the re-exec'd process as
// variables, not flags, so the test binary's own flag parsing never sees
// it.
const (
	envSeg     = "K42TRACE_SHM_CHILD_SEG"
	envCPU     = "K42TRACE_SHM_CHILD_CPU"
	envEvents  = "K42TRACE_SHM_CHILD_EVENTS"
	envPid     = "K42TRACE_SHM_CHILD_PID"
	envPayload = "K42TRACE_SHM_CHILD_PAYLOAD"
)

// Child modes.
const (
	// ModeLog attaches and logs Events two-word test events, round-robin
	// across all CPU slots when CPU is -1, then detaches and exits.
	ModeLog = "log"
	// ModeWorkload attaches and runs SyntheticWorkload on one CPU slot,
	// then detaches and exits.
	ModeWorkload = "workload"
	// ModeHang attaches, reserves event space with ReserveHang — leaving
	// the reservation uncommitted and the in-flight count raised — then
	// blocks forever, waiting for the parent's SIGKILL.
	ModeHang = "hang"
	// ModeBatchHang attaches, opens a Payload-word batch, appends Events
	// two-word test events into it, and blocks with the batch open —
	// nothing committed, in-flight raised — waiting for SIGKILL. The
	// worst case of the batched fast path: the whole extent (written
	// events included) must surface as a commit-count shortfall.
	ModeBatchHang = "batchhang"
)

// ChildSpec describes one fault child.
type ChildSpec struct {
	Mode    string
	Segment string
	// CPU is the slot to log on; -1 (ModeLog only) round-robins over all.
	CPU int
	// Events is the event count for ModeLog, the round count for
	// ModeWorkload.
	Events int
	// Pid is the logical workload pid stamped into events (not the OS
	// pid).
	Pid uint64
	// Payload is ModeHang's reservation payload size in words.
	Payload int
}

// Child is a running fault child and its line-oriented stdout, the
// parent's synchronization channel: children print a line at each
// milestone ("attached ...", "hung ...", "done ...") and the parent
// blocks on Expect until the child is provably in the state the test
// needs.
type Child struct {
	Cmd *exec.Cmd
	out *bufio.Scanner
}

// StartChild re-executes the current binary as a fault child. It must be
// paired with a TestMain calling RunChildIfRequested, or the child will
// run the parent's tests instead.
func StartChild(spec ChildSpec) (*Child, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		ChildEnv+"="+spec.Mode,
		envSeg+"="+spec.Segment,
		envCPU+"="+strconv.Itoa(spec.CPU),
		envEvents+"="+strconv.Itoa(spec.Events),
		envPid+"="+strconv.FormatUint(spec.Pid, 10),
		envPayload+"="+strconv.Itoa(spec.Payload),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("faultinject: starting child: %w", err)
	}
	return &Child{Cmd: cmd, out: bufio.NewScanner(stdout)}, nil
}

// Expect reads the child's next milestone line and verifies its prefix,
// returning the whole line (for parsing counts out of it).
func (c *Child) Expect(prefix string) (string, error) {
	if !c.out.Scan() {
		err := c.out.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return "", fmt.Errorf("faultinject: child died before %q: %w", prefix, err)
	}
	line := c.out.Text()
	if !strings.HasPrefix(line, prefix) {
		return "", fmt.Errorf("faultinject: child said %q, want prefix %q", line, prefix)
	}
	return line, nil
}

// Field parses "key=value" integers out of a milestone line.
func Field(line, key string) (int, error) {
	for _, tok := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(tok, key+"="); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, fmt.Errorf("faultinject: no %q field in %q", key, line)
}

// Kill delivers SIGKILL — no handlers, no deferred Detach, the process is
// simply gone, exactly like the paper's worry about "a process's
// execution [being] interrupted after it has reserved space".
func (c *Child) Kill() error {
	if err := c.Cmd.Process.Kill(); err != nil {
		return err
	}
	c.Cmd.Wait() // reap the zombie; the kill is the expected exit
	return nil
}

// Wait waits for a child that is expected to exit on its own.
func (c *Child) Wait() error { return c.Cmd.Wait() }

// RunChildIfRequested turns the process into a fault child when the child
// environment is set; otherwise it returns immediately. Call it first in
// TestMain.
func RunChildIfRequested() {
	mode := os.Getenv(ChildEnv)
	if mode == "" {
		return
	}
	os.Exit(runChild(mode))
}

func runChild(mode string) int {
	atoi := func(k string) int { n, _ := strconv.Atoi(os.Getenv(k)); return n }
	cpu, n, payload := atoi(envCPU), atoi(envEvents), atoi(envPayload)
	pid, _ := strconv.ParseUint(os.Getenv(envPid), 10, 64)
	cl, err := shm.Attach(os.Getenv(envSeg))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault child:", err)
		return 1
	}
	fmt.Printf("attached slot=%d pid=%d\n", cl.Slot(), os.Getpid())
	switch mode {
	case ModeLog:
		logged := 0
		for i := 0; i < n; i++ {
			slot := cpu
			if slot < 0 {
				slot = i % cl.NumCPUs()
			}
			if cl.CPU(slot).Log2(event.MajorTest, 1, uint64(i), pid) {
				logged++
			}
		}
		if err := cl.Detach(); err != nil {
			fmt.Fprintln(os.Stderr, "fault child:", err)
			return 1
		}
		fmt.Printf("done events=%d\n", logged)
	case ModeWorkload:
		logged := SyntheticWorkload(cl.CPU(cpu), pid, n)
		if err := cl.Detach(); err != nil {
			fmt.Fprintln(os.Stderr, "fault child:", err)
			return 1
		}
		fmt.Printf("done events=%d\n", logged)
	case ModeHang:
		words, ok := cl.CPU(cpu).ReserveHang(event.MajorTest, 9, payload)
		if !ok {
			fmt.Fprintln(os.Stderr, "fault child: reserve failed")
			return 1
		}
		fmt.Printf("hung words=%d\n", words)
		select {} // hold the dead reservation until SIGKILL
	case ModeBatchHang:
		var b core.Batch
		if !cl.CPU(cpu).OpenBatch(&b, event.MajorTest, payload) {
			fmt.Fprintln(os.Stderr, "fault child: batch open failed")
			return 1
		}
		written := 0
		for i := 0; i < n; i++ {
			if b.Log1(event.MajorTest, 9, uint64(i)) {
				written++
			}
		}
		fmt.Printf("hung words=%d written=%d\n", payload, 2*written)
		select {} // hold the open batch until SIGKILL
	default:
		fmt.Fprintf(os.Stderr, "fault child: unknown mode %q\n", mode)
		return 2
	}
	return 0
}

// SyntheticWorkload logs rounds of a fixed sched/syscall/lock pattern
// attributed to logical process pid on s, returning the events logged.
// The handle may be a Tracer's (in-process) or a shared segment's
// (cross-process) — the same workload runs against both and must analyze
// identically. The sequence is deterministic: with a deterministic clock,
// two runs of the same rounds on the same CPU slot produce identical
// buffer words.
func SyntheticWorkload(s core.CPU, pid uint64, rounds int) int {
	logged := 0
	count := func(ok bool) {
		if ok {
			logged++
		}
	}
	for i := 0; i < rounds; i++ {
		count(s.Log3(event.MajorSched, ksim.EvSchedSwitch, 0, pid, pid<<8))
		nr := uint64(i % 7)
		count(s.Log2(event.MajorSyscall, ksim.EvSyscallEnter, pid, nr))
		count(s.Log2(event.MajorSyscall, ksim.EvSyscallExit, pid, nr))
		if i%5 == 4 {
			lock := 0xe100 + pid
			count(s.Log2(event.MajorLock, ksim.EvLockStartWait, lock, pid))
			count(s.Log4(event.MajorLock, ksim.EvLockAcquired, lock, 120, 3, pid))
		}
	}
	return logged
}
