package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// runSchedCapture logs a deterministic mix of sched switches and payload
// events so blocks carry non-trivial pid attribution.
func runSchedCapture(t testing.TB, cpus, bufWords, n int) []byte {
	t.Helper()
	tr := core.MustNew(core.Config{
		CPUs: cpus, BufWords: bufWords, NumBufs: 4,
		Mode: core.Stream, Clock: clock.NewManual(1),
	})
	tr.EnableAll()
	var buf bytes.Buffer
	wait := CaptureAsync(tr, &buf)
	for i := 0; i < n; i++ {
		c := tr.CPU(i % cpus)
		switch i % 5 {
		case 0:
			// from-pid, to-pid: attribution changes here.
			c.Log2(event.MajorSched, ksim.EvSchedSwitch, uint64(i%7), uint64((i+1)%7))
		case 1:
			c.Log1(event.MajorTest, 1, uint64(i))
		case 2:
			c.Log2(event.MajorLock, 3, uint64(i), 99)
		default:
			c.Log4(event.MajorTest, 4, uint64(i), 1, 2, 3)
		}
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func buildFull(t *testing.T, rd *Reader, workers int) *FullIndex {
	t.Helper()
	fi, err := rd.BuildFullIndex(workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// TestFullIndexSummariesExact: per-block cpu/seq/min/max/count/majors must
// match a direct decode, and the pid carry must replay scheduling exactly,
// at every worker count.
func TestFullIndexSummariesExact(t *testing.T) {
	data := runSchedCapture(t, 3, 64, 700)
	rd := newReader(t, data)
	for _, w := range salvageWorkerCounts {
		fi := buildFull(t, rd, w)
		if len(fi.Blocks) != rd.NumBlocks() {
			t.Fatalf("workers=%d: %d summaries for %d blocks", w, len(fi.Blocks), rd.NumBlocks())
		}
		carry := map[int]uint64{}
		for k := 0; k < rd.NumBlocks(); k++ {
			bs := &fi.Blocks[k]
			h, words, err := rd.Block(k)
			if err != nil {
				t.Fatal(err)
			}
			if bs.CPU != h.CPU || bs.Seq != h.Seq {
				t.Fatalf("workers=%d: block %d: summary says cpu %d seq %d, header cpu %d seq %d",
					w, k, bs.CPU, bs.Seq, h.CPU, h.Seq)
			}
			evs, _ := core.DecodeBuffer(h.CPU, words)
			if int(bs.Events) != len(evs) {
				t.Fatalf("workers=%d: block %d: %d events summarized, %d decoded", w, k, bs.Events, len(evs))
			}
			if bs.EntryPid != carry[h.CPU] {
				t.Fatalf("workers=%d: block %d: entry pid %d, carry says %d", w, k, bs.EntryPid, carry[h.CPU])
			}
			var mask uint64
			var lo, hi uint64
			for i := range evs {
				e := &evs[i]
				if i == 0 || e.Time < lo {
					lo = e.Time
				}
				if e.Time > hi {
					hi = e.Time
				}
				if e.Time < bs.MinTime || e.Time > bs.MaxTime {
					t.Fatalf("workers=%d: block %d: event %d time %d outside [%d, %d]",
						w, k, i, e.Time, bs.MinTime, bs.MaxTime)
				}
				mask |= e.Major().Bit()
				if !bs.MinorBloom.MayContain(MinorKey(e.Major(), e.Minor())) {
					t.Fatalf("workers=%d: block %d: minor bloom missing (%v,%d)", w, k, e.Major(), e.Minor())
				}
				if !bs.PidBloom.MayContain(carry[h.CPU]) {
					t.Fatalf("workers=%d: block %d: pid bloom missing attributed pid %d", w, k, carry[h.CPU])
				}
				if e.Major() == event.MajorSched && e.Minor() == ksim.EvSchedSwitch && len(e.Data) >= 2 {
					carry[h.CPU] = e.Data[1]
				}
			}
			if mask != bs.MajorMask {
				t.Fatalf("workers=%d: block %d: major mask %#x, decoded %#x", w, k, bs.MajorMask, mask)
			}
			if len(evs) > 0 && (lo != bs.MinTime || hi != bs.MaxTime) {
				t.Fatalf("workers=%d: block %d: bounds [%d, %d] not tight, decoded [%d, %d]",
					w, k, bs.MinTime, bs.MaxTime, lo, hi)
			}
		}
	}
}

// TestIndexSidecarRoundTrip: encode/decode and save/load must reproduce
// the index exactly, and LoadOrBuildIndex must prefer the sidecar.
func TestIndexSidecarRoundTrip(t *testing.T) {
	data := runSchedCapture(t, 4, 64, 600)
	rd := newReader(t, data)
	fi := buildFull(t, rd, 4)

	got, err := DecodeIndex(EncodeIndex(fi))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fi) {
		t.Fatal("decode(encode(fi)) != fi")
	}

	dir := t.TempDir()
	trace := filepath.Join(dir, "t.ktr")
	if err := os.WriteFile(trace, data, 0o644); err != nil {
		t.Fatal(err)
	}
	side := IndexSidecarPath(trace)
	if err := SaveIndex(side, fi); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(side, rd.Meta(), rd.NumBlocks())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, fi) {
		t.Fatal("LoadIndex != original")
	}
	fi2, fromSidecar, err := LoadOrBuildIndex(trace, rd, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fromSidecar {
		t.Fatal("LoadOrBuildIndex rebuilt despite a good sidecar")
	}
	if !reflect.DeepEqual(fi2, fi) {
		t.Fatal("sidecar load != original")
	}
}

// TestIndexSidecarCorruption is the regression for the rebuilt-every-open
// fix: a corrupted, truncated, stale, or mismatched sidecar must never be
// believed — LoadOrBuildIndex falls back to an exact rebuild and repairs
// the sidecar for the next open.
func TestIndexSidecarCorruption(t *testing.T) {
	data := runSchedCapture(t, 4, 64, 600)
	rd := newReader(t, data)
	fi := buildFull(t, rd, 4)
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.ktr")
	if err := os.WriteFile(trace, data, 0o644); err != nil {
		t.Fatal(err)
	}
	side := IndexSidecarPath(trace)
	enc := EncodeIndex(fi)

	corruptions := map[string]func() []byte{
		"bit-flip": func() []byte {
			b := append([]byte(nil), enc...)
			b[len(b)/2] ^= 0x40
			return b
		},
		"truncated": func() []byte { return enc[:len(enc)-9] },
		"bad-magic": func() []byte {
			b := append([]byte(nil), enc...)
			b[0] ^= 0xff
			return b
		},
		"wrong-version": func() []byte {
			fi2 := *fi
			b := EncodeIndex(&fi2)
			b[8] = 0x7f // version word
			return b
		},
		// A sidecar an older build wrote: the version word is outside the
		// checksum, so only the version check refuses it.
		"version-1": func() []byte {
			b := append([]byte(nil), enc...)
			putWord(b, 1, 1)
			return b
		},
		// A block count that wraps the length check: 120·2^61 ≡ 0 mod 2^64,
		// so (header + records)·8 comes out at the true length.
		"count-overflow": func() []byte {
			b := append([]byte(nil), enc...)
			putWord(b, 6, uint64(len(fi.Blocks))+1<<61)
			putWord(b, 2, idxChecksum(b))
			return b
		},
		"empty": func() []byte { return nil },
	}
	for name, make_ := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(side, make_(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadIndex(side, rd.Meta(), rd.NumBlocks()); err == nil {
				t.Fatal("corrupted sidecar loaded without error")
			}
			got, fromSidecar, err := LoadOrBuildIndex(trace, rd, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fromSidecar {
				t.Fatal("corrupted sidecar was believed")
			}
			if !reflect.DeepEqual(got, fi) {
				t.Fatal("rebuild after corruption != clean index")
			}
			// The fallback must also have repaired the sidecar.
			if _, err := LoadIndex(side, rd.Meta(), rd.NumBlocks()); err != nil {
				t.Fatalf("sidecar not repaired after rebuild: %v", err)
			}
		})
	}

	// A sidecar describing a different trace (stale after overwrite) must
	// be rejected by the meta/block-count echo even though its checksum is
	// fine.
	t.Run("stale", func(t *testing.T) {
		other := runSchedCapture(t, 2, 32, 100)
		ord := newReader(t, other)
		ofi := buildFull(t, ord, 2)
		if err := SaveIndex(side, ofi); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndex(side, rd.Meta(), rd.NumBlocks()); err == nil {
			t.Fatal("stale sidecar for another trace loaded without error")
		}
		_, fromSidecar, err := LoadOrBuildIndex(trace, rd, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fromSidecar {
			t.Fatal("stale sidecar was believed")
		}
	})
}

// TestEntrySeedCarry: seeding BuildFullIndex must shift only the blocks
// before each CPU's first switch, mirroring a segment that continues an
// earlier stream.
func TestEntrySeedCarry(t *testing.T) {
	data := runSchedCapture(t, 2, 32, 300)
	rd := newReader(t, data)
	seed := []uint64{41, 42}
	fi, err := rd.BuildFullIndex(2, seed)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for k := range fi.Blocks {
		bs := &fi.Blocks[k]
		if !seen[bs.CPU] {
			seen[bs.CPU] = true
			if bs.EntryPid != seed[bs.CPU] {
				t.Fatalf("cpu %d first block entry pid %d, seed %d", bs.CPU, bs.EntryPid, seed[bs.CPU])
			}
			if !bs.PidBloom.MayContain(seed[bs.CPU]) {
				t.Fatalf("cpu %d first block bloom missing seed", bs.CPU)
			}
		}
	}
	if len(seen) != len(seed) {
		t.Fatalf("%d CPUs have blocks, want %d", len(seen), len(seed))
	}
}
