package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

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
// nothing since may move them.
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
		{"clean.ktr", false, 0, digest{2, 1049984, 0x007a1695}, digest{2, 1049984, 0x007a1695}},
		{"clean.ktr", false, 1, digest{10, 1050496, 0xd38aed43}, digest{2, 1049984, 0x0f018c81}},
		{"clean.ktr", false, 500000, digest{6, 1050240, 0xa02fd819}, digest{2, 1049984, 0x05536099}},
		{"clean.ktr", true, 500000, digest{6, 1050240, 0xa02fd819}, digest{2, 1049984, 0x05536099}},
		{"crosscpu-io.ktr", false, 0, digest{2, 525056, 0x3e465cf0}, digest{2, 525056, 0x3e465cf0}},
		{"garbled.ktr", false, 1, digest{8, 787904, 0xcceb992b}, digest{2, 787520, 0x9f09d994}},
		{"garbled.ktr", false, 500000, digest{6, 787776, 0x7eff35c4}, digest{2, 787520, 0x6502fc95}},
		{"truncated.ktr", false, 1, digest{10, 1050496, 0xd38aed43}, digest{2, 1049984, 0x0f018c81}},
		{"tuned.ktr", false, 0, digest{2, 1049984, 0x42f1fb61}, digest{2, 1049984, 0x42f1fb61}},
		{"store/acme.ktr", false, 500000, digest{4, 1050112, 0xc15759c2}, digest{2, 1049984, 0xf1d1a61f}},
		{"store/globex.ktr", false, 1, digest{6, 525312, 0x3a3adf34}, digest{2, 525056, 0x0a56ef4b}},
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

// TestIngestKeepsNoEvents: ingest holds a spill's words until its segments
// are written and nothing of its events, so it allocates the input once
// over plus what a block costs to track and index — for a spill in order
// and for one the salvager has to re-sequence. Keeping every block's
// decoded events until the last segment was written, as ingest did at the
// parent commit, is 48 bytes for every 28-byte SDET event on top.
func TestIngestKeepsNoEvents(t *testing.T) {
	clean := sdetSpill(t, 11)
	for _, row := range []struct {
		name string
		data []byte
	}{
		{"clean", clean},
		{"out-of-sequence", reverseBlocks(t, clean)},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := openStore(t, Options{Workers: 1})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := ingestBytes(t, s, "acme", row.data)
			runtime.ReadMemStats(&after)
			const perBlock = 4 << 10
			got := after.TotalAlloc - before.TotalAlloc
			if limit := uint64(len(row.data))*13/10 + uint64(res.Blocks)*perBlock; got > limit {
				t.Errorf("ingest of %d bytes in %d blocks allocated %d bytes, limit %d",
					len(row.data), res.Blocks, got, limit)
			}
		})
	}
}
