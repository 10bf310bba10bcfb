package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var runs = map[string]Run{
	"ktraced": Ktraced, "shmlog": Shmlog, "tracerelay": Tracerelay,
	"tracecolld": Tracecolld, "traceaggd": Traceaggd, "tracestored": Tracestored,
}

// childEnv names the command this test binary runs in place of its tests:
// the clients and the shard that must die by SIGKILL are real processes.
// Besides the commands it can be batchHang, the one client shmlog has no
// mode for.
const childEnv = "DAEMON_TEST_RUN"

func TestMain(m *testing.M) {
	name := os.Getenv(childEnv)
	if run := runs[name]; run != nil {
		os.Exit(Main(run))
	}
	if name == "batchhang" {
		os.Exit(Main(batchHang))
	}
	os.Exit(m.Run())
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// output is one stream of a running command, readable while it is written.
type output struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.b.String()
}

// running is a command under test: a goroutine of this process (start) or
// a child process (spawn).
type running struct {
	t              *testing.T
	stdout, stderr output
	cancel         func()   // what SIGTERM is to the command
	exited         chan int // its exit status
	child          *exec.Cmd
}

func start(t *testing.T, run Run, args ...string) *running {
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{t: t, cancel: cancel, exited: make(chan int, 1)}
	go func() { r.exited <- run(ctx, args, &r.stdout, &r.stderr) }()
	t.Cleanup(func() { r.end(cancel, args) })
	return r
}

func spawn(t *testing.T, name string, args ...string) *running {
	r := &running{t: t, exited: make(chan int, 1), child: exec.Command(os.Args[0], args...)}
	r.child.Env = append(os.Environ(), childEnv+"="+name)
	r.child.Stdout, r.child.Stderr = &r.stdout, &r.stderr
	if err := r.child.Start(); err != nil {
		t.Fatal(err)
	}
	r.cancel = func() { r.child.Process.Signal(syscall.SIGTERM) }
	go func() {
		r.child.Wait()
		r.exited <- r.child.ProcessState.ExitCode()
	}()
	t.Cleanup(func() { r.end(func() { r.child.Process.Kill() }, args) })
	return r
}

// end is the cleanup of a command: whatever is left of it goes, and a
// failed test shows what it wrote.
func (r *running) end(kill func(), args []string) {
	kill()
	if r.t.Failed() {
		r.t.Logf("%v\nstdout:\n%s\nstderr:\n%s", args, &r.stdout, &r.stderr)
	}
}

// exits waits for the command to return and fails the test unless its
// status is code. What it announced on stdout — "… on ADDR" — must by then
// refuse a dial: a Run that has returned holds no listener.
func (r *running) exits(code int) {
	r.t.Helper()
	select {
	case got := <-r.exited:
		r.exited <- got
		if got != code {
			r.t.Fatalf("exit %d, want %d", got, code)
		}
	case <-time.After(time.Minute):
		r.t.Fatal("still running")
	}
	for _, m := range announced.FindAllStringSubmatch(r.stdout.String(), -1) {
		if c, err := net.Dial("tcp", m[1]); err == nil {
			c.Close()
			r.t.Errorf("still listening on %s after it returned", m[1])
		}
	}
}

var announced = regexp.MustCompile(` on (?:http://)?(127\.0\.0\.1:\d+)`)

// stopped is exits after what SIGTERM is to the command.
func (r *running) stopped(code int) {
	r.t.Helper()
	r.cancel()
	r.exits(code)
}

// settles returns the check that the goroutines of this process are back to
// their number now — deferred by a test around everything it starts.
func settles(t *testing.T) func() {
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		if t.Failed() {
			return // whatever it started may still be running
		}
		eventually(t, "the goroutines to settle", func() bool { return runtime.NumGoroutine() <= before })
	}
}

// expect waits for stdout to match pattern and returns the submatches.
func (r *running) expect(pattern string) (m []string) {
	r.t.Helper()
	re := regexp.MustCompile(pattern)
	eventually(r.t, "stdout to match "+pattern, func() bool {
		m = re.FindStringSubmatch(r.stdout.String())
		return m != nil
	})
	return m
}

// client keeps no connection, so a closed server leaves no goroutine here.
var client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// call makes one request and returns the status, the headers and the body.
func call(t *testing.T, method, url, body string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if method == "POST" {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// getJSON decodes a 200 answer into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, _, body := call(t, "GET", url, "")
	if err := json.Unmarshal([]byte(body), v); code != 200 || err != nil {
		t.Fatalf("GET %s: status %d, %v: %s", url, code, err, body)
	}
}

// TestExitStatus: -h is 0 with the usage on stderr, a flag the command
// cannot run with is 2 with a message naming it, and a file it cannot open
// or an HTTP port already in use is 1 — each with nothing announced on
// stdout, and with the listener opened before the refused one closed again.
func TestExitStatus(t *testing.T) {
	taken, err := net.Listen("tcp", lo)
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	free, err := net.Listen("tcp", lo)
	if err != nil {
		t.Fatal(err)
	}
	free.Close()
	inUse := []string{"-listen", free.Addr().String(), "-http", taken.Addr().String()}
	type exitRow struct {
		name   string
		args   []string
		code   int
		stderr string // a substring of it
	}
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "x")
	rows := []exitRow{
		{"ktraced", nil, 2, "ktraced: -seg is required\n"},
		{"ktraced", []string{"-seg", missing}, 2, "ktraced: exactly one of -spill or -relay is required\n"},
		{"ktraced", []string{"-seg", missing, "-spill", "a", "-relay", "b"}, 2, "exactly one of -spill or -relay"},
		{"ktraced", []string{"-seg", filepath.Join(dir, "seg"), "-spill", missing}, 1, "ktraced: open "},
		{"ktraced", []string{"-seg", missing, "-spill", filepath.Join(dir, "spill")}, 1, "ktraced: "},
		{"ktraced", []string{"-seg", missing, "-spill", "a", "-mask", "nope"}, 2, `invalid value "nope" for flag -mask: event: unknown major "nope"`},
		{"shmlog", nil, 2, "shmlog: -seg is required\n"},
		{"shmlog", []string{"-seg", missing}, 1, "shmlog: "},
		{"shmlog", []string{"-seg", missing, "-cpu", "-2"}, 2, `invalid value "-2" for flag -cpu: want -1 or >= 0` + "\n"},
		{"tracerelay", nil, 2, "usage: tracerelay -send addr | -fed url\n  -attempts int"},
		{"tracerelay", []string{"-send", "127.0.0.1:1", "-cpus", "1"}, 1, "tracerelay: relay: 127.0.0.1:1: attempt 1 of 1 failed: "},
		{"tracerelay", []string{"-send", "127.0.0.1:1", "-loadgen", "-cpus", "0"}, 2, `invalid value "0" for flag -cpus: want in [1, 65536]` + "\n"},
		{"tracerelay", []string{"-send", "127.0.0.1:1", "-config", "tunned"}, 2, `invalid value "tunned" for flag -config: want one of tuned, coarse` + "\n"},
		{"tracecolld", []string{"-watch", "1,x"}, 2, `invalid value "1,x" for flag -watch: bad pid "x": `},
		{"tracecolld", []string{"-mask", "nope"}, 2, `invalid value "nope" for flag -mask: event: unknown major "nope"`},
		{"tracecolld", []string{"-store", "http://127.0.0.1:1", "-store-tenant", "a/b"}, 2, `invalid value "a/b" for flag -store-tenant: want a tenant name` + "\n"},
		{"tracecolld", []string{"-store", "http://127.0.0.1:1", "-listen", lo, "-http", lo}, 2, "tracecolld: -store uploads the spill: it needs -spill\n"},
		{"tracecolld", []string{"-name", "s1", "-heartbeat", "100ms", "-listen", lo, "-http", lo}, 2, "tracecolld: federating needs -agg-http (set: -heartbeat, -name)\n"},
		{"tracecolld", []string{"-advertise", lo, "-listen", lo, "-http", lo}, 2, "tracecolld: federating needs -agg-http (set: -advertise)\n"},
		{"tracecolld", []string{"-agg-http", "http://127.0.0.1:1", "-heartbeat", "0", "-listen", lo, "-http", lo}, 2, `invalid value "0" for flag -heartbeat: want > 0s` + "\n"},
		{"tracecolld", []string{"-spill", missing}, 1, "tracecolld: open "},
		{"tracecolld", inUse, 1, "address already in use"},
		{"traceaggd", inUse[2:], 1, "address already in use"},
		{"tracestored", append([]string{"-root", dir, "-relay"}, inUse[1:]...), 1, "address already in use"},
		{"traceaggd", []string{"-mask", "nope"}, 2, `invalid value "nope" for flag -mask: event: unknown major "nope"`},
		{"traceaggd", []string{"-member-ttl", "-1s", "-http", lo}, 2, `invalid value "-1s" for flag -member-ttl: want > 0s` + "\n"},
		{"tracestored", nil, 2, "usage: tracestored -root DIR [-http ADDR] [-watch DIR] [-relay ADDR]\n  -cache-bytes int"},
		{"tracestored", []string{"-root", filepath.Join(os.Args[0], "under-a-file")}, 1, "tracestored: "},
		{"tracestored", []string{"-root", dir, "-watch", dir, "-watch-every", "0"}, 2, `invalid value "0" for flag -watch-every: want > 0s` + "\n"},
		{"tracestored", []string{"-root", dir, "-relay", lo, "-relay-tenant", "../escape", "-http", lo}, 2, `invalid value "../escape" for flag -relay-tenant: want a tenant name` + "\n"},
	}
	// Values outside their flag's domain that a command once ran with,
	// swapping in a library default or a different count: refused while
	// parsing, with the flag named.
	served := []string{"-listen", lo, "-http", lo}
	stored := []string{"-root", dir, "-http", lo}
	segment := []string{"-seg", filepath.Join(dir, "seg"), "-spill", filepath.Join(dir, "spill.ktr"), "-rm"}
	sent := []string{"-send", "127.0.0.1:1", "-cpus", "1", "-backoff", "1ms"}
	for _, d := range []struct {
		name        string
		args        []string
		flag, value string
		want        string
	}{
		{"tracecolld", served, "queue", "-1", ">= 1"},
		{"tracecolld", served, "cpu-slots", "-1", "in [1, 65536]"},
		{"tracecolld", served, "cpu-slots", "100000", "in [1, 65536]"},
		{"tracecolld", served, "window", "-1s", "> 0s"},
		{"tracecolld", served, "max-windows", "0", ">= 1"},
		{"tracecolld", served, "slow", "0", "> 0s"},
		{"tracestored", stored, "j", "-3", ">= 0"},
		{"tracestored", stored, "max-seg-bytes", "-5", ">= 1"},
		{"tracestored", stored, "cache-bytes", "-1", ">= 0"},
		{"tracestored", stored, "retain-age", "-1s", ">= 0s"},
		{"tracestored", stored, "retain-bytes", "-1", ">= 0"},
		{"tracestored", stored, "tenant-queue", "-1", ">= 0"},
		{"tracestored", stored, "tenant-queries", "-1", ">= 0"},
		{"tracestored", stored, "compact-every", "-1s", ">= 0s"},
		{"tracestored", stored, "gc-every", "-1s", ">= 0s"},
		{"ktraced", segment, "cpus", "0", "in [1, 4096]"},
		{"ktraced", segment, "max-clients", "0", "in [1, 65536]"},
		{"tracerelay", append(sent, "-reconnect"), "attempts", "0", ">= 1"},
		{"tracerelay", append(sent, "-reconnect"), "attempts", "-1", ">= 1"},
		{"tracerelay", sent, "drop", "2", "in [0, 1]"},
		{"tracerelay", sent, "drop", "-1", "in [0, 1]"},
		{"shmlog", []string{"-seg", missing, "-hang"}, "payload", "-1", ">= 0"},
	} {
		rows = append(rows, exitRow{d.name, slices.Concat(d.args, []string{"-" + d.flag, d.value}), 2,
			fmt.Sprintf("invalid value %q for flag -%s: want %s\n", d.value, d.flag, d.want)})
	}
	for name := range runs {
		rows = append(rows,
			exitRow{name, []string{"-h"}, 0, "Usage of " + name + ":\n  -"},
			exitRow{name, []string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag\nUsage of " + name + ":\n"})
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // a command that got past its flags would drain at once
	for _, r := range rows {
		var stdout, stderr bytes.Buffer
		code := runs[r.name](cancelled, r.args, &stdout, &stderr)
		if code != r.code || stdout.Len() != 0 || !strings.Contains(stderr.String(), r.stderr) {
			t.Errorf("%s %v: exit %d, stdout %q, stderr %q; want %d, none, and %q",
				r.name, r.args, code, &stdout, &stderr, r.code, r.stderr)
		}
	}
	if c, err := net.Dial("tcp", free.Addr().String()); err == nil {
		c.Close()
		t.Errorf("a command refused its HTTP port and left its relay listener on %s open", free.Addr())
	}
}

// TestEveryFlagDeclaresItsDomain: each daemon's flag set declares a domain
// for every numeric and duration flag, with its default inside it —
// flagset.Parse walks the set with VisitAll and panics on a flag without
// one, and a declaration whose default falls outside its domain panics.
func TestEveryFlagDeclaresItsDomain(t *testing.T) {
	for name, run := range runs {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: %v", name, p)
				}
			}()
			if code := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); code != 0 {
				t.Errorf("%s -h: exit %d", name, code)
			}
		}()
	}
}

// flagName is a flag's line in a usage message.
var flagName = regexp.MustCompile(`(?m)^  -(\S+)`)

// FuzzDaemonFlags: any value for any flag of a daemon, followed by -h, is
// exit 0 or exit 2 with a line naming the flag, and nothing on stdout: a
// value outside its domain is refused while it is parsed, before -h, and -h
// ends the parse before anything is opened, bound or allocated.
func FuzzDaemonFlags(f *testing.F) {
	names := slices.Sorted(maps.Keys(runs))
	flags := map[string][]string{}
	for _, name := range names {
		var usage bytes.Buffer
		runs[name](context.Background(), []string{"-h"}, io.Discard, &usage)
		for _, m := range flagName.FindAllStringSubmatch(usage.String(), -1) {
			flags[name] = append(flags[name], m[1])
		}
	}
	seed := func(name, flag, value string) {
		f.Add(uint8(slices.Index(names, name)), uint8(slices.Index(flags[name], flag)), value)
	}
	seed("tracecolld", "queue", "-1")
	seed("tracecolld", "watch", "1,x")
	seed("tracestored", "cache-bytes", "256")
	seed("ktraced", "cpus", "100000000")
	seed("ktraced", "bufwords", "24")
	seed("tracerelay", "drop", "NaN")
	seed("tracerelay", "cpus", "1e9")
	seed("traceaggd", "member-ttl", "1h")
	seed("shmlog", "workload", "x")
	seed("shmlog", "pid", "-1")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // a command that got past its flags would drain at once
	f.Fuzz(func(t *testing.T, cmd, flag uint8, value string) {
		name := names[int(cmd)%len(names)]
		fl := flags[name][int(flag)%len(flags[name])]
		args := []string{"-" + fl + "=" + value, "-h"}
		var stdout, stderr bytes.Buffer
		code := runs[name](cancelled, args, &stdout, &stderr)
		if stdout.Len() != 0 || code != 0 && (code != 2 || !strings.Contains(stderr.String(), " -"+fl+": ")) {
			t.Errorf("%s %q: exit %d, stdout %q, stderr %q", name, args, code, &stdout, &stderr)
		}
	})
}

// TestStoreTenantIsEscaped: the -store upload sends the tenant as one query
// value whatever it holds.
func TestStoreTenantIsEscaped(t *testing.T) {
	got := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.URL.Query().Get("tenant")
	}))
	defer srv.Close()
	if err := uploadSpill(srv.URL+"/", "a&b=c d", "daemon.go"); err != nil {
		t.Fatal(err)
	}
	if tenant := <-got; tenant != "a&b=c d" {
		t.Errorf("tenant arrived as %q", tenant)
	}
}

// TestMainCancelsOnSIGTERM: in a real process the first signal is the
// cancellation, named in the drain line, and the exit status is the drain's.
func TestMainCancelsOnSIGTERM(t *testing.T) {
	r := spawn(t, "tracecolld", "-listen", lo, "-http", lo)
	r.expect(`producers on `)
	r.stopped(0)
	r.expect(`tracecolld: terminated, draining\n(.*\n)*tracecolld: 0 producers, 0 blocks, 0 events`)
}
