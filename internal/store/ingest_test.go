package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"k42trace/internal/event"
	"k42trace/internal/stream"
)

const corpusDir = "../../testdata/corpus"

// dirDigest folds every segment file and index sidecar under dir — name,
// size and bytes, in name order — into one CRC.
func dirDigest(t testing.TB, dir string) (files int, size int64, crc uint32) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := crc32.NewIEEE()
	for _, e := range ents {
		if ext := filepath.Ext(e.Name()); ext != ".ktr" && ext != ".kix" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(b))
		h.Write(b)
		files++
		size += int64(len(b))
	}
	return files, size, h.Sum32()
}

// TestIngestGoldenSegments pins what ingest and compaction put on disk:
// the segment files and index sidecars of the checked-in corpus, byte for
// byte. The digests were recorded before ingest stopped keeping a spill's
// decoded events (the summary a scan worker computes from its scratch must
// index a block exactly as SummarizeEvents over the kept events did), and
// nothing since may move them but a change of the sidecar format, which
// leaves the segment files as they are.
func TestIngestGoldenSegments(t *testing.T) {
	type digest struct {
		files int
		size  int64
		crc   uint32
	}
	golden := []struct {
		trace             string
		reversed          bool // blocks in reverse file order: every CPU out of sequence
		span              uint64
		ingested, compact digest
	}{
		{"clean.ktr", false, 0, digest{2, 1049920, 0x898027dc}, digest{2, 1049920, 0x898027dc}},
		{"clean.ktr", false, 1, digest{10, 1050432, 0xf6f05f5b}, digest{2, 1049920, 0x14b100ad}},
		{"clean.ktr", false, 500000, digest{6, 1050176, 0x543eab97}, digest{2, 1049920, 0xfd6f3af3}},
		{"clean.ktr", true, 500000, digest{6, 1050176, 0x543eab97}, digest{2, 1049920, 0xfd6f3af3}},
		{"crosscpu-io.ktr", false, 0, digest{2, 525024, 0x834c09f8}, digest{2, 525024, 0x834c09f8}},
		{"garbled.ktr", false, 1, digest{8, 787856, 0x19e82821}, digest{2, 787472, 0xbed22b71}},
		{"garbled.ktr", false, 500000, digest{6, 787728, 0xe61ca6e6}, digest{2, 787472, 0x7ce15524}},
		{"truncated.ktr", false, 1, digest{10, 1050432, 0xf6f05f5b}, digest{2, 1049920, 0x14b100ad}},
		{"tuned.ktr", false, 0, digest{2, 1049920, 0x156a36cd}, digest{2, 1049920, 0x156a36cd}},
		{"store/acme.ktr", false, 500000, digest{4, 1050048, 0x668b8c1a}, digest{2, 1049920, 0x88d54a93}},
		{"store/globex.ktr", false, 1, digest{6, 525280, 0x05ff2d59}, digest{2, 525024, 0xa6f1c451}},
	}
	for _, g := range golden {
		t.Run(fmt.Sprintf("%s/reversed=%v/span=%d", g.trace, g.reversed, g.span), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(corpusDir, g.trace))
			if err != nil {
				t.Fatal(err)
			}
			if g.reversed {
				data = reverseBlocks(t, data)
			}
			now := int64(1_700_000_000)
			s := openStore(t, Options{SegmentSpan: g.span, Workers: 4, Now: fixedNow(&now)})
			ingestBytes(t, s, "gold", data)
			dir := filepath.Join(s.opt.Root, "gold")
			var got digest
			got.files, got.size, got.crc = dirDigest(t, dir)
			if got != g.ingested {
				t.Errorf("after ingest: %d files, %d bytes, crc %#08x; golden %d, %d, %#08x",
					got.files, got.size, got.crc, g.ingested.files, g.ingested.size, g.ingested.crc)
			}
			if _, err := s.Compact("gold"); err != nil {
				t.Fatal(err)
			}
			got.files, got.size, got.crc = dirDigest(t, dir)
			if got != g.compact {
				t.Errorf("after compaction: %d files, %d bytes, crc %#08x; golden %d, %d, %#08x",
					got.files, got.size, got.crc, g.compact.files, g.compact.size, g.compact.crc)
			}
		})
	}
}

// reverseBlocks rewrites a clean trace with its blocks in reverse file
// order, so that every CPU's blocks arrive out of sequence.
func reverseBlocks(t testing.TB, data []byte) []byte {
	t.Helper()
	rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	wr, err := stream.NewWriter(&out, rd.Meta())
	if err != nil {
		t.Fatal(err)
	}
	for k := rd.NumBlocks() - 1; k >= 0; k-- {
		h, words, err := rd.Block(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := wr.WriteBlock(h, words); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIngestKeepsNoWords: ingest and compaction hold one block at a time —
// in a scan scratch, then in the segment writer's stride buffer — so what
// they allocate is a few strides plus what a block costs to track and index
// and a segment to finish, far under the input's size: for a spill in order
// and for one the salvager has to re-sequence, split into a segment a block
// and merged back into one. Keeping every block's words until its segment
// was written, as both did at the parent commit, is the input once over.
func TestIngestKeepsNoWords(t *testing.T) {
	clean := sdetSpill(t, 11)
	for _, row := range []struct {
		name string
		data []byte
	}{
		{"clean", clean},
		{"out-of-sequence", reverseBlocks(t, clean)},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := openStore(t, Options{Workers: 1, SegmentSpan: 1})
			var res *IngestResult
			got := allocated(func() { res = ingestBytes(t, s, "acme", row.data) })
			if len(res.Segments) < res.Blocks/2 {
				t.Fatalf("want about a segment a block, got %d segments of %d blocks", len(res.Segments), res.Blocks)
			}
			const perBlock, perSegment = 4 << 10, 4 << 10
			limit := uint64(len(row.data)/2 + res.Blocks*perBlock + len(res.Segments)*perSegment)
			if got > limit {
				t.Errorf("ingest of %d bytes into %d blocks of %d segments allocated %d bytes, limit %d",
					len(row.data), res.Blocks, len(res.Segments), got, limit)
			}
			var cr *CompactResult
			var err error
			got = allocated(func() { cr, err = s.Compact("acme") })
			if err != nil || cr.In != len(res.Segments) || cr.Out != 1 {
				t.Fatalf("compaction of %d segments: %+v, %v", len(res.Segments), cr, err)
			}
			if got > limit {
				t.Errorf("compaction of %d bytes in %d blocks of %d segments allocated %d bytes, limit %d",
					len(row.data), res.Blocks, len(res.Segments), got, limit)
			}
		})
	}
}

// densitySpill writes `blocks` full 4096-word blocks over two CPUs, each an
// anchor, then events of 1+payload words a tick apart for as long as they
// fit, then filler: spills of one geometry that differ only in how many
// events a block holds.
func densitySpill(t testing.TB, payload, blocks int) []byte {
	t.Helper()
	const bufWords = 4096
	var out bytes.Buffer
	wr, err := stream.NewWriter(&out, stream.Meta{BufWords: bufWords, CPUs: 2, ClockHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(1)
	words := make([]uint64, 0, bufWords)
	for k := 0; k < blocks; k++ {
		words = append(words[:0], uint64(event.MakeHeader(uint32(now), 2, event.MajorControl, event.CtrlClockAnchor)), now)
		for len(words)+1+payload <= bufWords {
			now++
			words = append(words, uint64(event.MakeHeader(uint32(now), 1+payload, event.MajorTest, 1)))
			for i := 0; i < payload; i++ {
				words = append(words, uint64(i))
			}
		}
		if rest := bufWords - len(words); rest > 0 {
			words = append(words, uint64(event.MakeHeader(uint32(now), rest, event.MajorControl, event.CtrlFiller)))
			words = words[:bufWords]
		}
		h := stream.BlockHeader{CPU: k % 2, Seq: uint64(k / 2), NWords: bufWords, Committed: bufWords}
		if err := wr.WriteBlock(h, words); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestDigestScratchIsAChunk: the scans that reduce a block to its digest —
// the salvage scan under ingest, the index build and compaction — decode it
// a chunk of events at a time, so a scan whose scratch starts cold (a nil
// free list, a fresh store) allocates the same bytes over blocks of
// one-word events as over blocks of five-word events. A scan that decoded
// each block whole grew its scratch to the block's events: 4 095 of them
// against 819, 150 KiB apart.
func TestDigestScratchIsAChunk(t *testing.T) {
	const blocks, runs = 8, 3
	measure := func(payload int) (salvage, index, compact uint64) {
		data := densitySpill(t, payload, blocks)
		salvage, index, compact = ^uint64(0), ^uint64(0), ^uint64(0)
		root := t.TempDir()
		s := openStore(t, Options{Root: root, SegmentSpan: 1, Workers: 1})
		for i := 0; i < runs; i++ {
			if res := ingestBytes(t, s, fmt.Sprint("t", i), data); len(res.Segments) != blocks {
				t.Fatalf("want a segment a block, got %d segments of %d blocks", len(res.Segments), res.Blocks)
			}
		}
		rd, err := stream.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < runs; i++ {
			salvage = min(salvage, allocated(func() {
				if _, rep, err := stream.SalvageBlocks(bytes.NewReader(data), int64(len(data)), 1, nil); err != nil || rep.BlocksGood != blocks {
					t.Fatalf("salvage scan: %v", err)
				}
			}))
			index = min(index, allocated(func() {
				if _, err := rd.BuildFullIndex(1, nil); err != nil {
					t.Fatal(err)
				}
			}))
			// A store opened afresh has an empty scratch list.
			fresh := openStore(t, Options{Root: root, SegmentSpan: 1, Workers: 1})
			compact = min(compact, allocated(func() {
				if cr, err := fresh.Compact(fmt.Sprint("t", i)); err != nil || cr.In != blocks || cr.Out != 1 {
					t.Fatalf("compaction: %+v, %v", cr, err)
				}
			}))
		}
		return salvage, index, compact
	}
	s1, i1, c1 := measure(0)
	s5, i5, c5 := measure(4)
	const slack = 4 << 10
	for _, row := range []struct {
		name          string
		dense, sparse uint64
	}{
		{"SalvageBlocks", s1, s5},
		{"BuildFullIndex", i1, i5},
		{"Compact", c1, c5},
	} {
		if d := int64(row.dense) - int64(row.sparse); d > slack || d < -slack {
			t.Errorf("%s over %d blocks of 1-word events allocates %d bytes, over 5-word events %d: %+d, want within %d",
				row.name, blocks, row.dense, row.sparse, d, slack)
		}
	}
}

// dirFiles maps every file under dir to the CRC of its bytes.
func dirFiles(t testing.TB, dir string) map[string]uint32 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]uint32{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = crc32.ChecksumIEEE(b)
	}
	return files
}

// TestFailedWriteLeavesNothing: an ingest whose source changes under it
// after the scan — the block header CopyBlock re-reads no longer carries the
// commit count the scan saw — is refused in the middle of its second
// segment, and a compaction whose inputs do not hold the events the
// manifest says they do is refused after its last block. Neither commits
// anything, and neither waits for the next Open to take its files away: the
// tenant directory holds exactly what it held before the call.
func TestFailedWriteLeavesNothing(t *testing.T) {
	data := sdetSpill(t, 5)
	base, _ := readAllEvents(t, data)
	s := openStore(t, Options{SegmentSpan: (base[len(base)-1].Time - base[0].Time) / 5})
	res := ingestBytes(t, s, "acme", data)
	if len(res.Segments) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(res.Segments))
	}
	dir := filepath.Join(s.opt.Root, "acme")
	before := dirFiles(t, dir)

	src := append([]byte(nil), data...)
	rd, err := stream.NewReader(bytes.NewReader(src), int64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	geo := rd.Meta().Geometry()
	copied := 0
	killHook = func(stage string) {
		if stage != "ingest-mid-segment" {
			return
		}
		if copied++; copied == res.Segments[0].Blocks+1 {
			for k := 0; k < rd.NumBlocks(); k++ {
				src[geo.FileHeaderBytes+k*geo.BlockBytes+3*8] ^= 1
			}
		}
	}
	defer func() { killHook = nil }()
	_, err = s.Ingest("acme", bytes.NewReader(src), int64(len(src)))
	if err == nil || !strings.Contains(err.Error(), "changed since it was scanned") {
		t.Fatalf("ingest of a source that changed after the scan: %v", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("failed ingest left the tenant directory changed:\n%v\nbefore:\n%v", after, before)
	}

	tn := s.getTenant("acme")
	tn.man.Segments[0].Events++
	_, err = s.Compact("acme")
	tn.man.Segments[0].Events--
	if err == nil || !strings.Contains(err.Error(), "would change event count") {
		t.Fatalf("compaction against a manifest that miscounts: %v", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("failed compaction left the tenant directory changed:\n%v\nbefore:\n%v", after, before)
	}

	r, err := s.Query(Params{Tenant: "acme"})
	if err != nil || !sameEvents(r.Events, MatchStream(base, Params{Tenant: "acme"})) {
		t.Errorf("the store no longer answers with the spill it holds: %v", err)
	}
}
