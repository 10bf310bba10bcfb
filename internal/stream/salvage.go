package stream

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// Salvage is the skip-and-report counterpart of ReadAllParallel: instead
// of aborting on the first unreadable block, it quarantines bad blocks
// and keeps decoding. The paper's file property makes this sound — every
// block starts at an alignment boundary with a decodable event, so one
// garbled block never poisons its neighbours.
//
// Salvage survives damage the strict reader cannot: corrupted block
// headers, zero-filled regions, a truncated final block (decoded up to
// the cut), duplicated and reordered block delivery (deduped and re-sorted
// by per-CPU sequence number), and even a destroyed file header (the
// block geometry is re-derived by scanning for block magics). The only
// unrecoverable input is one with no recognizable block structure at all.
//
// The returned events are merged across CPUs exactly like ReadAllParallel
// output — the scan orders and de-duplicates the surviving blocks by their
// headers, and the same tail decodes them under the merge — and are
// identical to it on an undamaged file. Their payloads alias the salvager's
// own copy of each surviving block, which lives as long as they do. The
// report is deterministic for any worker count (workers <= 0 means
// GOMAXPROCS).
func Salvage(r io.ReaderAt, size int64, workers int) ([]event.Event, *SalvageReport, error) {
	blocks, rep, err := salvageScan(r, size, workers, keepWords, nil)
	if err != nil {
		return nil, nil, err
	}
	evs := mergeChains(blocks)
	rep.addDecodeStats(blocks)
	return evs, rep, nil
}

// SalvageTo rewrites a readable trace file from a damaged one: every
// surviving block is written back out, per CPU in sequence order, with
// duplicates dropped and a clipped final block re-marked partial. The
// result opens cleanly with NewReader and decodes to exactly the events
// Salvage recovers. When the source file header was lost, the rewritten
// header carries the recovered geometry (CPU count inferred from the
// blocks, clock rate unknown and recorded as zero).
//
// It is a scan and then one Writer.CopyBlock per surviving block, so it
// holds one block's words at a time and no events. r is read twice and must
// not change during the call: w must not be r's storage.
func SalvageTo(r io.ReaderAt, size int64, w io.Writer, workers int) (*SalvageReport, error) {
	blocks, rep, err := SalvageBlocks(r, size, workers, nil)
	if err != nil {
		return nil, err
	}
	if rep.BlocksGood == 0 {
		return rep, fmt.Errorf("stream: salvage: no decodable blocks to rewrite")
	}
	wr, err := NewWriter(w, rep.Meta)
	if err != nil {
		return rep, err
	}
	for i := range blocks {
		if err := wr.CopyBlock(r, blocks[i].Digest.Off, blocks[i].Hdr); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// BadBlock records one quarantined block.
type BadBlock struct {
	Block  int   // block index in the damaged file, in file order
	Offset int64 // byte offset of the block in the file
	Cause  string
}

// CPUSalvage summarizes salvage results for one CPU's stream.
type CPUSalvage struct {
	CPU    int
	Blocks int // blocks that decoded into this stream
	Events int // events recovered
	// SkippedWords counts garbled words skipped inside decoded blocks
	// (the event-level resync, as opposed to whole-block quarantine).
	SkippedWords int
	DupBlocks    int // duplicate (seq) deliveries dropped
	Reordered    int // out-of-sequence deliveries put back in order
	// LostBlocks counts missing buffer generations, detected as gaps in
	// the per-CPU sequence numbers — an exact count of lost blocks.
	LostBlocks int
	// LostEventsEst estimates the events those gaps cost, from the mean
	// events per decoded block of this CPU.
	LostEventsEst int
}

// SalvageReport is what a salvage pass learned about a damaged trace.
type SalvageReport struct {
	// Meta is the trace metadata used for decoding. When MetaRecovered is
	// set the file header was unreadable and Meta was re-derived: BufWords
	// from the block-magic stride, CPUs from the blocks themselves, and
	// ClockHz unknown (zero — analyses then assume nanosecond ticks).
	Meta          Meta
	MetaRecovered bool

	FileSize   int64
	DataOffset int64 // file offset of the first block
	// TailBytes is the size of the trailing fragment that was not a whole
	// block (a truncated file); TailSalvaged reports whether its leading
	// words still decoded.
	TailBytes    int64
	TailSalvaged bool

	BlocksScanned int
	BlocksGood    int
	BlocksSkipped int
	Skipped       []BadBlock // quarantined blocks, in file order

	DupBlocks     int
	Reordered     int
	LostBlocks    int
	LostEventsEst int

	EventsRecovered int
	Stats           core.DecodeStats // aggregated over decoded blocks

	PerCPU []CPUSalvage // sorted by CPU; only CPUs with surviving blocks
	// Anomalous holds the headers of the surviving blocks their writer
	// flagged anomalous (a commit-count mismatch), in write-out order.
	Anomalous []BlockHeader
}

// Clean reports whether the trace needed no salvage at all.
func (rep *SalvageReport) Clean() bool {
	return !rep.MetaRecovered && rep.TailBytes == 0 && rep.BlocksSkipped == 0 &&
		rep.DupBlocks == 0 && rep.Reordered == 0 && rep.LostBlocks == 0 &&
		rep.Stats.SkippedWords == 0
}

// Format writes the human-readable report.
func (rep *SalvageReport) Format(w io.Writer) {
	fmt.Fprintf(w, "salvage: %d bytes, data at offset %d, %d blocks scanned\n",
		rep.FileSize, rep.DataOffset, rep.BlocksScanned)
	src := "file header"
	if rep.MetaRecovered {
		src = "recovered by block scan; clock rate unknown"
	}
	fmt.Fprintf(w, "  meta: bufWords=%d cpus=%d clockHz=%d (%s)\n",
		rep.Meta.BufWords, rep.Meta.CPUs, rep.Meta.ClockHz, src)
	fmt.Fprintf(w, "  blocks: %d good, %d quarantined, %d duplicates dropped, %d reordered, %d lost (seq gaps)\n",
		rep.BlocksGood, rep.BlocksSkipped, rep.DupBlocks, rep.Reordered, rep.LostBlocks)
	fmt.Fprintf(w, "  events: %d recovered, ~%d lost to gaps (estimated), %d garbled words skipped in decoded blocks\n",
		rep.EventsRecovered, rep.LostEventsEst, rep.Stats.SkippedWords)
	if rep.TailBytes > 0 {
		state := "unreadable"
		if rep.TailSalvaged {
			state = "leading events salvaged"
		}
		fmt.Fprintf(w, "  tail: %d trailing bytes beyond the last whole block (%s)\n",
			rep.TailBytes, state)
	}
	const maxListed = 20
	for i, bb := range rep.Skipped {
		if i == maxListed {
			fmt.Fprintf(w, "  ... and %d more quarantined blocks\n", len(rep.Skipped)-maxListed)
			break
		}
		fmt.Fprintf(w, "  quarantined block %d (offset %d): %s\n", bb.Block, bb.Offset, bb.Cause)
	}
	for _, c := range rep.PerCPU {
		fmt.Fprintf(w, "  cpu %2d: %d blocks, %d events, %d dup, %d reordered, %d lost blocks (~%d events), %d skipped words\n",
			c.CPU, c.Blocks, c.Events, c.DupBlocks, c.Reordered, c.LostBlocks, c.LostEventsEst, c.SkippedWords)
	}
}

func (rep *SalvageReport) String() string {
	var sb strings.Builder
	rep.Format(&sb)
	return sb.String()
}

// salvageMaxCPUs bounds the CPU ids accepted while salvaging a file whose
// header — and therefore true CPU count — was lost.
const salvageMaxCPUs = 4096

// SalvageBlocks runs the salvage scan and returns the surviving blocks in
// write-out order (CPUs ascending, per-CPU sequence order, duplicates
// dropped), plus the filled-in salvage report. It is SalvageTo without the
// writer: callers that partition blocks — a time-sharded store splitting
// one spill into many segment files — consume exactly the clean block
// sequence SalvageTo would have written. Each block has its header and a
// Digest, and neither Words nor Events: the partitioning key (first-event
// time), the index summary and the anchor need no second decode pass, and
// no word or event outlives the scan worker that decoded it. The words are
// where Digest.Off says they are, for Writer.CopyBlock under the block's
// header — so r must not change between the scan and the copy. The scan
// workers' scratch is taken off free and put back; nil makes it for the call.
func SalvageBlocks(r io.ReaderAt, size int64, workers int, free *ScratchList) ([]SalvagedBlock, *SalvageReport, error) {
	blocks, rep, err := salvageScan(r, size, workers, keepDigest, free)
	if err != nil {
		return nil, nil, err
	}
	rep.addDecodeStats(blocks)
	return blocks, rep, nil
}

// salvageScan is the scan under Salvage, SalvageTo and SalvageBlocks, which
// differ in what they keep of a block — and so in when its events are
// decoded: the report comes back without its decode statistics, which the
// caller adds (addDecodeStats) once the blocks have theirs.
//
// It tries the file header's geometry first; if the header is unreadable —
// or claims a geometry under which nothing decodes — it falls back to
// re-deriving the geometry from block magics.
func salvageScan(r io.ReaderAt, size int64, workers int, what keep, free *ScratchList) ([]SalvagedBlock, *SalvageReport, error) {
	var (
		hdrBlocks []SalvagedBlock
		hdrRep    *SalvageReport
	)
	hdr := make([]byte, fileHdrWords*8)
	if size >= int64(len(hdr)) {
		if _, err := r.ReadAt(hdr, 0); err == nil {
			if meta, err := decodeFileHeader(hdr); err == nil {
				hdrBlocks, hdrRep = scanWith(r, size, meta, fileHdrWords*8, false, workers, what, free)
				nWhole := hdrRep.BlocksScanned
				if hdrRep.TailBytes > 0 {
					nWhole--
				}
				if hdrRep.BlocksGood > 0 || nWhole == 0 {
					return hdrBlocks, hdrRep, nil
				}
				// A header that parses but under whose geometry nothing
				// decodes is as good as no header (e.g. a bit-flipped
				// bufWords field): fall through to the magic scan.
			}
		}
	}
	meta, dataOff, err := recoverGeometry(r, size)
	if err != nil {
		if hdrRep != nil {
			// The magic scan found even less than the header's geometry
			// did; report the header-based (everything-quarantined) view.
			return hdrBlocks, hdrRep, nil
		}
		return nil, nil, err
	}
	blocks, rep := scanWith(r, size, meta, dataOff, true, workers, what, free)
	if hdrRep != nil && rep.BlocksGood == 0 {
		return hdrBlocks, hdrRep, nil
	}
	return blocks, rep, nil
}

// scanWith scans the file under one assumed geometry: the strict reader's
// own scan through a Reader laid over that geometry, except that a block
// error quarantines the block instead of failing the read. The one thing
// only a salvager reads is the fragment a truncation leaves after the last
// whole block.
func scanWith(r io.ReaderAt, size int64, meta Meta, dataOff int64, recovered bool, workers int, what keep, free *ScratchList) ([]SalvagedBlock, *SalvageReport) {
	rep := &SalvageReport{
		Meta:          meta,
		MetaRecovered: recovered,
		FileSize:      size,
		DataOffset:    dataOff,
	}
	rd, tail := readerOver(r, size, meta, dataOff)
	blocks, errs := rd.decodeAll(workers, what, free)
	rep.BlocksScanned = rd.nBlk
	kept := make([]*SalvagedBlock, 0, rd.nBlk+1)
	for k := range blocks {
		if errs != nil && errs[k] != nil {
			// Both kinds of block error wrap their cause in the block's
			// index and offset, which a BadBlock carries as fields.
			rep.Skipped = append(rep.Skipped, BadBlock{
				Block: k, Offset: rd.blockOff(k), Cause: errors.Unwrap(errs[k]).Error(),
			})
			continue
		}
		kept = append(kept, &blocks[k])
	}

	// A trailing fragment: a file truncated mid-block. If its header is
	// intact, decode the payload words that survived the cut — every
	// event before the cut is recoverable.
	rep.TailBytes = tail
	if tail > 0 {
		rep.BlocksScanned++
		if b, ok := rd.tailBlock(tail, what, free); ok {
			kept = append(kept, b)
			rep.TailSalvaged = true
		} else {
			rep.Skipped = append(rep.Skipped, BadBlock{
				Block: rd.nBlk, Offset: rd.blockOff(rd.nBlk), Cause: errTruncated.Error(),
			})
		}
	}
	rep.BlocksGood = len(kept)
	rep.BlocksSkipped = len(rep.Skipped)

	out := assemble(kept, rep)
	if recovered {
		// The header is gone, so the CPU count is whatever the surviving
		// blocks say it is.
		rep.Meta.CPUs = 0
		if len(out) > 0 {
			rep.Meta.CPUs = out[len(out)-1].Hdr.CPU + 1
		}
	}
	return out, rep
}

// tailBlock decodes the tail-byte fragment that a truncation left of the
// file's last block, after the whole ones: the payload words before the
// cut, under a header rewritten to say so.
func (rd *Reader) tailBlock(tail int64, what keep, free *ScratchList) (*SalvagedBlock, bool) {
	tb := make([]byte, tail)
	if _, err := rd.r.ReadAt(tb, rd.blockOff(rd.nBlk)); err != nil {
		return nil, false
	}
	h, err := rd.meta.blockHeader(tb)
	if err != nil {
		return nil, false
	}
	if avail := int(tail)/8 - blockHdrWords; h.NWords > avail {
		// Keep only the words that survived.
		h.NWords = avail
		h.Flags |= FlagPartial
	}
	b := &SalvagedBlock{Hdr: h}
	sc := free.Get()
	defer free.Put(sc)
	rd.keepBlock(b, what, rd.blockOff(rd.nBlk), tb[blockHdrWords*8:(blockHdrWords+h.NWords)*8], sc)
	return b, true
}

// assemble puts surviving blocks in write-out order — CPUs ascending, each
// CPU's blocks in sequence order, duplicate deliveries dropped — accounts
// for gaps, and starts the per-CPU section of the report. It reads headers
// only: what the blocks decode to is added by addDecodeStats.
func assemble(kept []*SalvagedBlock, rep *SalvageReport) []SalvagedBlock {
	// Out-of-sequence deliveries (a reordering relay) are the inversions
	// among one CPU's blocks in file order, which is how kept arrives.
	reordered := map[int]int{}
	lastSeq := map[int]uint64{}
	for _, b := range kept {
		if last, ok := lastSeq[b.Hdr.CPU]; ok && b.Hdr.Seq < last {
			reordered[b.Hdr.CPU]++
		}
		lastSeq[b.Hdr.CPU] = b.Hdr.Seq
	}
	// The stable sort keeps file order among equal sequence numbers, so the
	// first delivery of a duplicated block wins.
	slices.SortStableFunc(kept, func(a, b *SalvagedBlock) int {
		if c := cmp.Compare(a.Hdr.CPU, b.Hdr.CPU); c != 0 {
			return c
		}
		return cmp.Compare(a.Hdr.Seq, b.Hdr.Seq)
	})

	out := make([]SalvagedBlock, 0, len(kept))
	for i := 0; i < len(kept); {
		cs := CPUSalvage{CPU: kept[i].Hdr.CPU, Reordered: reordered[kept[i].Hdr.CPU]}
		first := len(out)
		for ; i < len(kept) && kept[i].Hdr.CPU == cs.CPU; i++ {
			b := kept[i]
			if n := len(out); n > first {
				d := b.Hdr.Seq - out[n-1].Hdr.Seq
				if d == 0 {
					cs.DupBlocks++
					continue
				}
				// Sequence gaps are an exact count of lost buffer generations.
				cs.LostBlocks += int(min(d-1, 1<<20)) // capped: a garbled seq in a surviving block
			}
			out = append(out, *b)
			cs.Blocks++
			if b.Hdr.Anomalous() {
				rep.Anomalous = append(rep.Anomalous, b.Hdr)
			}
		}
		rep.DupBlocks += cs.DupBlocks
		rep.Reordered += cs.Reordered
		rep.LostBlocks += cs.LostBlocks
		rep.PerCPU = append(rep.PerCPU, cs)
	}
	// BlocksGood counts survivors after dedup, so the report satisfies
	// scanned == good + skipped + duplicates.
	rep.BlocksGood -= rep.DupBlocks
	return out
}

// addDecodeStats finishes the report with what its blocks — assemble's, in
// that order, each decoded by now — decoded to: the events recovered and
// words skipped per CPU and in all, and from a CPU's mean events per block
// the estimate of what its gaps cost.
func (rep *SalvageReport) addDecodeStats(blocks []SalvagedBlock) {
	for i := range rep.PerCPU {
		cs := &rep.PerCPU[i]
		for k := range blocks[:cs.Blocks] {
			st := blocks[k].st
			cs.Events += st.Events
			cs.SkippedWords += st.SkippedWords
			rep.Stats.Add(st)
		}
		blocks = blocks[cs.Blocks:]
		if cs.LostBlocks > 0 && cs.Blocks > 0 {
			cs.LostEventsEst = int(float64(cs.LostBlocks)*float64(cs.Events)/float64(cs.Blocks) + 0.5)
		}
		rep.LostEventsEst += cs.LostEventsEst
		rep.EventsRecovered += cs.Events
	}
}

// recoverGeometry re-derives a destroyed file header from the blocks
// themselves: block magics mark every stride boundary, so the stride (and
// therefore bufWords) is the dominant distance between consecutive magics,
// and the data offset is the first magic. This is the resynchronization
// the format's per-block magic exists for.
func recoverGeometry(r io.ReaderAt, size int64) (Meta, int64, error) {
	const (
		chunkBytes = 1 << 20
		maxMagics  = 1 << 14
	)
	var offs []int64
	buf := make([]byte, chunkBytes)
	for base := int64(0); base < size && len(offs) < maxMagics; base += chunkBytes {
		n, err := r.ReadAt(buf, base)
		if n <= 0 && err != nil {
			break
		}
		n -= n % 8
		for i := 0; i+8 <= n; i += 8 {
			if binary.LittleEndian.Uint64(buf[i:]) == BlockMagic {
				offs = append(offs, base+int64(i))
			}
		}
	}
	if len(offs) == 0 {
		return Meta{}, 0, fmt.Errorf("stream: salvage: no block magics found in %d bytes", size)
	}
	var strideB int64
	if len(offs) == 1 {
		// A single block: everything after its magic must be it.
		strideB = size - offs[0]
	} else {
		diffs := map[int64]int{}
		for i := 1; i < len(offs); i++ {
			diffs[offs[i]-offs[i-1]]++
		}
		// Deterministic pick: highest count, smallest stride on ties.
		var cands []int64
		for d := range diffs {
			cands = append(cands, d)
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		for _, d := range cands {
			if strideB == 0 || diffs[d] > diffs[strideB] {
				strideB = d
			}
		}
	}
	bufWords := int(strideB/8) - blockHdrWords
	if strideB%8 != 0 || bufWords < 16 || bufWords > MaxBufWords {
		return Meta{}, 0, fmt.Errorf("stream: salvage: cannot infer block stride (best guess %d bytes)", strideB)
	}
	// CPUs is only a bound on the ids to believe: the scan replaces it with
	// what the blocks themselves say. ClockHz is unrecoverable.
	return Meta{BufWords: bufWords, CPUs: salvageMaxCPUs}, offs[0], nil
}
