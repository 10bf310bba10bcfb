package store

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The crash-safety harness re-execs the test binary: the child installs a
// killHook that hard-exits at a chosen killpoint, the parent then
// re-opens the wounded store and proves recovery lands on exactly the
// pre- or post-mutation view. Env vars, not flags, select child mode so
// the go test flag machinery never sees them.
const (
	crashStageEnv = "K42TRACE_STORE_CRASH_STAGE"
	crashHitEnv   = "K42TRACE_STORE_CRASH_HIT" // which pass through the killpoint dies
	crashSpanEnv  = "K42TRACE_STORE_CRASH_SPAN"
	crashRootEnv  = "K42TRACE_STORE_CRASH_ROOT"
	crashExitCode = 3

	crashSpill = "spill.ktr" // under the root: what an ingest stage ingests
)

func TestMain(m *testing.M) {
	if stage := os.Getenv(crashStageEnv); stage != "" {
		crashChild(stage, os.Getenv(crashRootEnv))
		return
	}
	os.Exit(m.Run())
}

// crashChild runs the mutation the stage belongs to — a second ingest of the
// root's spill, or compaction — and dies, without cleanup, at the requested
// pass through the stage's killpoint — simulating a crash at the worst
// moments: with a segment file half written, after the merged segment hit
// disk but before the manifest swap, and right after it.
func crashChild(stage, root string) {
	hit, _ := strconv.Atoi(os.Getenv(crashHitEnv))
	span, _ := strconv.ParseUint(os.Getenv(crashSpanEnv), 10, 64)
	killHook = func(st string) {
		if st != stage {
			return
		}
		if hit--; hit <= 0 {
			fmt.Printf("killpoint:%s\n", st)
			os.Stdout.Sync()
			os.Exit(crashExitCode)
		}
	}
	s, err := Open(Options{Root: root, SegmentSpan: span})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	if strings.HasPrefix(stage, "ingest-") {
		_, err = s.IngestFile("acme", filepath.Join(root, crashSpill))
	} else {
		_, err = s.Compact("acme")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	fmt.Println("done")
	os.Exit(0)
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, in); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tenantFilesMatchManifest asserts the on-disk tenant directory holds
// exactly the manifest's segments — recovery must have swept all debris.
func tenantFilesMatchManifest(t *testing.T, dir string) manifest {
	t.Helper()
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{manifestName: true}
	for _, si := range man.Segments {
		name := fmt.Sprintf("seg-%08d.ktr", si.ID)
		want[name] = true
		want[name+".kix"] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !want[e.Name()] {
			t.Errorf("unreferenced file %s survived recovery", e.Name())
		}
	}
	return man
}

func segIDs(man manifest) []uint64 {
	ids := make([]uint64, len(man.Segments))
	for i, si := range man.Segments {
		ids[i] = si.ID
	}
	return ids
}

// TestCrashDuringCompaction kills compaction — and a second ingest of the
// same spill — at every killpoint and verifies the reopened store is exactly
// the pre-swap view (the orphaned output, whole or cut off in the middle of a
// block run, is swept, the catalog is untouched) or exactly the post-swap
// view (after-swap: the merge is committed, the inputs are gone) — with the
// event stream byte-identical either way.
func TestCrashDuringCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test")
	}
	data := sdetSpill(t, 77)
	base, _ := readAllEvents(t, data)
	lo, hi := base[0].Time, base[len(base)-1].Time

	// Template store: one tenant, one upload split fine enough that
	// compaction has real work (adjacent same-upload runs).
	tmpl := t.TempDir()
	span := (hi - lo) / 9
	s, err := Open(Options{Root: tmpl, SegmentSpan: span})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmpl, crashSpill), data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.Ingest("acme", strings.NewReader(string(data)), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) < 3 {
		t.Fatalf("need >= 3 segments for a compaction run, got %d", len(res.Segments))
	}
	s.Close()
	preMan, err := loadManifest(filepath.Join(tmpl, "acme"))
	if err != nil {
		t.Fatal(err)
	}
	preIDs := segIDs(preMan)
	var preEvents uint64
	for _, si := range preMan.Segments {
		preEvents += si.Events
	}

	for _, kp := range []struct {
		stage string
		hit   int // die at the hit-th pass through the killpoint
	}{
		// One segment whole and uncommitted, the second two blocks in.
		{"ingest-mid-segment", res.Segments[0].Blocks + 2},
		{"compact-mid-write", 3},
		{"compact-before-swap", 1},
		{"compact-after-swap", 1},
	} {
		stage := kp.stage
		t.Run(stage, func(t *testing.T) {
			root := t.TempDir()
			copyDir(t, tmpl, root)

			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(),
				crashStageEnv+"="+stage, crashHitEnv+"="+strconv.Itoa(kp.hit),
				crashSpanEnv+"="+strconv.FormatUint(span, 10), crashRootEnv+"="+root)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != crashExitCode {
				t.Fatalf("child: err=%v, output:\n%s", err, out)
			}
			if !strings.Contains(string(out), "killpoint:"+stage) {
				t.Fatalf("child never hit %s, output:\n%s", stage, out)
			}

			// Recovery: reopen and inspect.
			wounded, err := os.ReadDir(filepath.Join(root, "acme"))
			if err != nil {
				t.Fatal(err)
			}
			rs, err := Open(Options{Root: root, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			man := tenantFilesMatchManifest(t, filepath.Join(root, "acme"))
			if swept := len(wounded) - (1 + 2*len(man.Segments)); stage != "compact-after-swap" && swept <= 0 {
				t.Errorf("the crash left nothing for recovery to sweep (%d files)", len(wounded))
			}
			ids := segIDs(man)
			var events uint64
			for _, si := range man.Segments {
				events += si.Events
			}
			if events != preEvents {
				t.Fatalf("recovered catalog holds %d events, expected %d", events, preEvents)
			}
			switch stage {
			default:
				// Exactly the pre-crash view: same segments, and the whole or
				// half-written output must have been swept.
				if fmt.Sprint(ids) != fmt.Sprint(preIDs) {
					t.Fatalf("pre-swap crash changed the catalog: %v -> %v", preIDs, ids)
				}
			case "compact-after-swap":
				// Exactly the post-compaction view of the first merge.
				if len(ids) >= len(preIDs) {
					t.Fatalf("post-swap crash lost the merge: %v -> %v", preIDs, ids)
				}
			}

			// The event stream is identical in either view.
			r, err := rs.Query(Params{Tenant: "acme"})
			if err != nil {
				t.Fatal(err)
			}
			want := MatchStream(base, Params{Tenant: "acme"})
			if !sameEvents(r.Events, want) {
				t.Fatalf("recovered query diverges from the original spill (%d vs %d events)",
					len(r.Events), len(want))
			}

			// And compaction can finish the job after recovery.
			if _, err := rs.Compact("acme"); err != nil {
				t.Fatal(err)
			}
			r, err = rs.Query(Params{Tenant: "acme"})
			if err != nil {
				t.Fatal(err)
			}
			if !sameEvents(r.Events, want) {
				t.Fatal("query diverges after post-recovery compaction")
			}
		})
	}
}
