package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
// output, and are identical to it on an undamaged file. Their payloads
// alias the salvager's own copy of each surviving block, which lives as
// long as they do. The report is
// deterministic for any worker count (workers <= 0 means GOMAXPROCS).
func Salvage(r io.ReaderAt, size int64, workers int) ([]event.Event, *SalvageReport, error) {
	perCPU, rep, err := salvageScan(r, size, workers)
	if err != nil {
		return nil, nil, err
	}
	streams := make([][]event.Event, 0, len(perCPU))
	for i := range perCPU {
		n := 0
		for _, b := range perCPU[i].blocks {
			n += len(b.evs)
		}
		if n == 0 {
			continue
		}
		s := make([]event.Event, 0, n)
		for _, b := range perCPU[i].blocks {
			s = append(s, b.evs...)
		}
		if !timesNonDecreasing(s) {
			// Garbled stamps inside surviving blocks: restore the order the
			// global sort would impose, as ReadAllParallel does.
			sort.SliceStable(s, func(i, j int) bool { return s[i].Time < s[j].Time })
		}
		streams = append(streams, s)
	}
	return MergeByTime(streams...), rep, nil
}

// SalvageTo rewrites a readable trace file from a damaged one: every
// surviving block is written back out, per CPU in sequence order, with
// duplicates dropped and a clipped final block re-marked partial. The
// result opens cleanly with NewReader and decodes to exactly the events
// Salvage recovers. When the source file header was lost, the rewritten
// header carries the recovered geometry (CPU count inferred from the
// blocks, clock rate unknown and recorded as zero).
func SalvageTo(r io.ReaderAt, size int64, w io.Writer, workers int) (*SalvageReport, error) {
	perCPU, rep, err := salvageScan(r, size, workers)
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
	for _, cb := range perCPU {
		for _, b := range cb.blocks {
			h := b.hdr
			if h.NWords != len(b.words) {
				// Truncated final block: keep only the words that survived.
				h.NWords = len(b.words)
				h.Flags |= FlagPartial
			}
			if err := wr.WriteBlock(h, b.words); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// SalvageParallel runs Salvage over an already-open Reader's file. It is
// useful when a file opens (valid header, whole-block size) but individual
// blocks fail to decode.
func (rd *Reader) SalvageParallel(workers int) ([]event.Event, *SalvageReport, error) {
	return Salvage(rd.r, fileHdrWords*8+int64(rd.nBlk)*rd.stride, workers)
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

// salvagedBlock is one surviving block: its place in the damaged file,
// its decoded events, and its raw payload words (for SalvageTo). The words
// are this block's own copy and the events' payloads alias them, so the
// two live and die together.
type salvagedBlock struct {
	file  int
	off   int64
	hdr   BlockHeader
	words []uint64
	evs   []event.Event
	st    core.DecodeStats
}

// cpuBlocks is one CPU's surviving blocks in sequence order, deduped.
type cpuBlocks struct {
	cpu    int
	blocks []*salvagedBlock
}

// salvageScan reads every block it can find, quarantining the unreadable,
// and returns the survivors grouped per CPU in sequence order plus the
// filled-in report (EventsRecovered and per-CPU stats included). It tries
// the file header's geometry first; if the header is unreadable — or
// claims a geometry under which nothing decodes — it falls back to
// re-deriving the geometry from block magics.
func salvageScan(r io.ReaderAt, size int64, workers int) ([]cpuBlocks, *SalvageReport, error) {
	var (
		hdrPer []cpuBlocks
		hdrRep *SalvageReport
	)
	hdr := make([]byte, fileHdrWords*8)
	if size >= int64(len(hdr)) {
		if _, err := r.ReadAt(hdr, 0); err == nil {
			if meta, err := decodeFileHeader(hdr); err == nil {
				hdrPer, hdrRep = scanWith(r, size, meta, fileHdrWords*8, false, workers)
				nWhole := hdrRep.BlocksScanned
				if hdrRep.TailBytes > 0 {
					nWhole--
				}
				if hdrRep.BlocksGood > 0 || nWhole == 0 {
					return hdrPer, hdrRep, nil
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
			return hdrPer, hdrRep, nil
		}
		return nil, nil, err
	}
	perCPU, rep := scanWith(r, size, meta, dataOff, true, workers)
	if hdrRep != nil && rep.BlocksGood == 0 {
		return hdrPer, hdrRep, nil
	}
	return perCPU, rep, nil
}

// scanWith scans the file under one assumed geometry.
func scanWith(r io.ReaderAt, size int64, meta Meta, dataOff int64, recovered bool, workers int) ([]cpuBlocks, *SalvageReport) {
	rep := &SalvageReport{
		Meta:          meta,
		MetaRecovered: recovered,
		FileSize:      size,
		DataOffset:    dataOff,
	}
	stride := blockStride(meta.BufWords)
	nWhole := int((size - dataOff) / stride)
	tail := (size - dataOff) % stride
	cpuLimit := meta.CPUs
	if recovered {
		cpuLimit = salvageMaxCPUs
	}

	type scanRes struct {
		blk *salvagedBlock
		bad *BadBlock
	}
	results := make([]scanRes, nWhole)
	scanOne := func(k int, scratch []byte) {
		off := dataOff + int64(k)*stride
		bad := func(cause string) {
			results[k].bad = &BadBlock{Block: k, Offset: off, Cause: cause}
		}
		b := scratch[:stride]
		if _, err := r.ReadAt(b, off); err != nil {
			bad("read error: " + err.Error())
			return
		}
		h, err := decodeBlockHeader(b)
		if err != nil {
			bad(err.Error())
			return
		}
		if h.NWords > meta.BufWords {
			bad(fmt.Sprintf("implausible word count %d > bufWords %d", h.NWords, meta.BufWords))
			return
		}
		if h.CPU >= cpuLimit {
			bad(fmt.Sprintf("implausible CPU %d", h.CPU))
			return
		}
		words := bytesToWords(b[blockHdrWords*8 : (blockHdrWords+h.NWords)*8])
		evs, st := core.DecodeInto(nil, h.CPU, words)
		results[k].blk = &salvagedBlock{file: k, off: off, hdr: h, words: words, evs: evs, st: st}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nWhole {
		workers = nWhole
	}
	if workers <= 1 {
		scratch := make([]byte, stride)
		for k := 0; k < nWhole; k++ {
			scanOne(k, scratch)
		}
	} else {
		// Same dynamic fan-out as ReadAllParallel: workers pull the next
		// unscanned block; results land in a per-block slot, so the report
		// and the salvaged stream are identical for any worker count.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scratch := make([]byte, stride)
				for {
					k := int(next.Add(1)) - 1
					if k >= nWhole {
						return
					}
					scanOne(k, scratch)
				}
			}()
		}
		wg.Wait()
	}

	var kept []*salvagedBlock
	rep.BlocksScanned = nWhole
	for k := range results {
		switch {
		case results[k].blk != nil:
			kept = append(kept, results[k].blk)
		case results[k].bad != nil:
			rep.Skipped = append(rep.Skipped, *results[k].bad)
		}
	}

	// A trailing fragment: a file truncated mid-block. If its header is
	// intact, decode the payload words that survived the cut — every
	// event before the cut is recoverable.
	rep.TailBytes = tail
	if tail > 0 {
		rep.BlocksScanned++
		off := dataOff + int64(nWhole)*stride
		salvagedTail := false
		if tail >= int64(blockHdrWords*8) {
			tb := make([]byte, tail)
			if _, err := r.ReadAt(tb, off); err == nil {
				if h, err := decodeBlockHeader(tb); err == nil &&
					h.NWords <= meta.BufWords && h.CPU < cpuLimit {
					avail := int(tail)/8 - blockHdrWords
					n := h.NWords
					if n > avail {
						n = avail
					}
					words := bytesToWords(tb[blockHdrWords*8 : (blockHdrWords+n)*8])
					evs, st := core.DecodeInto(nil, h.CPU, words)
					kept = append(kept, &salvagedBlock{
						file: nWhole, off: off, hdr: h, words: words, evs: evs, st: st,
					})
					salvagedTail = true
					rep.TailSalvaged = true
				}
			}
		}
		if !salvagedTail {
			rep.Skipped = append(rep.Skipped, BadBlock{
				Block: nWhole, Offset: off,
				Cause: fmt.Sprintf("truncated tail: %d bytes, no decodable header", tail),
			})
		}
	}
	rep.BlocksGood = len(kept)
	rep.BlocksSkipped = len(rep.Skipped)

	perCPU := assemble(kept, rep)
	if recovered {
		// The header is gone, so the CPU count is whatever the surviving
		// blocks say it is.
		maxCPU := -1
		for _, cb := range perCPU {
			if cb.cpu > maxCPU {
				maxCPU = cb.cpu
			}
		}
		rep.Meta.CPUs = maxCPU + 1
	}
	return perCPU, rep
}

// assemble groups surviving blocks per CPU, restores sequence order,
// drops duplicate deliveries, and accounts for gaps; it fills the
// per-CPU and total sections of the report.
func assemble(kept []*salvagedBlock, rep *SalvageReport) []cpuBlocks {
	byCPU := map[int][]*salvagedBlock{}
	var cpus []int
	for _, b := range kept {
		c := b.hdr.CPU
		if _, ok := byCPU[c]; !ok {
			cpus = append(cpus, c)
		}
		byCPU[c] = append(byCPU[c], b)
	}
	sort.Ints(cpus)

	out := make([]cpuBlocks, 0, len(cpus))
	for _, c := range cpus {
		blocks := byCPU[c]
		cs := CPUSalvage{CPU: c}
		// Out-of-sequence deliveries (a reordering relay): count the
		// inversions in file order, then restore sequence order. The
		// stable sort keeps file order among equal sequence numbers, so
		// the first delivery of a duplicated block wins.
		for i := 1; i < len(blocks); i++ {
			if blocks[i].hdr.Seq < blocks[i-1].hdr.Seq {
				cs.Reordered++
			}
		}
		sort.SliceStable(blocks, func(i, j int) bool {
			return blocks[i].hdr.Seq < blocks[j].hdr.Seq
		})
		deduped := blocks[:0:0]
		for _, b := range blocks {
			if n := len(deduped); n > 0 && b.hdr.Seq == deduped[n-1].hdr.Seq {
				cs.DupBlocks++
				continue
			}
			deduped = append(deduped, b)
		}
		// Sequence gaps are an exact count of lost buffer generations.
		for i := 1; i < len(deduped); i++ {
			if d := deduped[i].hdr.Seq - deduped[i-1].hdr.Seq; d > 1 {
				lost := d - 1
				if lost > 1<<20 { // garbled seq in a surviving block
					lost = 1 << 20
				}
				cs.LostBlocks += int(lost)
			}
		}
		for _, b := range deduped {
			cs.Blocks++
			cs.Events += len(b.evs)
			cs.SkippedWords += b.st.SkippedWords
			rep.Stats.Events += b.st.Events
			rep.Stats.FillerEvents += b.st.FillerEvents
			rep.Stats.FillerWords += b.st.FillerWords
			rep.Stats.SkippedWords += b.st.SkippedWords
		}
		if cs.LostBlocks > 0 && cs.Blocks > 0 {
			cs.LostEventsEst = int(float64(cs.LostBlocks)*float64(cs.Events)/float64(cs.Blocks) + 0.5)
		}
		rep.DupBlocks += cs.DupBlocks
		rep.Reordered += cs.Reordered
		rep.LostBlocks += cs.LostBlocks
		rep.LostEventsEst += cs.LostEventsEst
		rep.EventsRecovered += cs.Events
		rep.PerCPU = append(rep.PerCPU, cs)
		out = append(out, cpuBlocks{cpu: c, blocks: deduped})
	}
	// BlocksGood counts survivors after dedup, so the report satisfies
	// scanned == good + skipped + duplicates.
	rep.BlocksGood -= rep.DupBlocks
	return out
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
	// CPUs is filled in after the scan from the blocks themselves; ClockHz
	// is unrecoverable.
	return Meta{BufWords: bufWords, CPUs: 1}, offs[0], nil
}
