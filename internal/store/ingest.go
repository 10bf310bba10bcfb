package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"k42trace/internal/stream"
)

// IngestResult reports what one spill became.
type IngestResult struct {
	Tenant string `json:"tenant"`
	Upload uint64 `json:"upload"`
	// Segments the upload was split into, in time order.
	Segments []SegmentInfo `json:"segments"`
	Events   uint64        `json:"events"`
	Blocks   int           `json:"blocks"`
	// EmptyBlocks counts source blocks that decoded to no events (pure
	// filler) and were not stored.
	EmptyBlocks int `json:"empty_blocks"`
	// Salvaged reports whether the source needed any repair; Salvage has
	// the details.
	Salvaged bool                  `json:"salvaged"`
	Salvage  *stream.SalvageReport `json:"-"`
}

// Ingest stores one .ktr spill under the tenant namespace. The spill is
// rewritten through the salvage machinery — garbled blocks quarantined,
// duplicates dropped, sequence restored — so stored segments are always
// clean, then split at SegmentSpan time boundaries into one or more
// segment files, each with a persisted index sidecar. The commit point is
// the manifest swap: a crash mid-ingest leaves only orphan files that the
// next Open sweeps.
func (s *Store) Ingest(tenantName string, r io.ReaderAt, size int64) (*IngestResult, error) {
	t, err := s.tenantOrCreate(tenantName)
	if err != nil {
		return nil, err
	}
	blocks, rep, err := stream.SalvageBlocks(r, size, s.opt.Workers)
	if err != nil {
		return nil, fmt.Errorf("store: ingest %s: %w", tenantName, err)
	}
	if rep.BlocksGood == 0 {
		return nil, fmt.Errorf("store: ingest %s: no decodable blocks", tenantName)
	}

	// Partition blocks into SegmentSpan windows by exact first-event time.
	// Iteration is cpu-major in per-CPU sequence order (SalvageBlocks
	// guarantees it), so each window receives every CPU's blocks in stream
	// order and the per-CPU entry-pid carry is exact. The scan kept each
	// block's words, which the segment files are written from, and a digest
	// of its events, which is all partitioning and indexing read.
	span := s.opt.SegmentSpan
	builders := map[uint64]*segBuilder{}
	var order []uint64
	carry := make([]uint64, rep.Meta.CPUs)
	window := func(tick uint64) uint64 {
		if span == 0 {
			return 0
		}
		return tick / span
	}
	empty := 0
	var events uint64
	for i := range blocks {
		b := &blocks[i]
		if b.Digest.Sum.Events == 0 {
			empty++
			continue
		}
		w := window(b.Digest.FirstTime)
		sb := builders[w]
		if sb == nil {
			sb = newSegBuilder(rep.Meta)
			builders[w] = sb
			order = append(order, w)
		}
		carry[b.Hdr.CPU] = sb.add(b.Hdr, b.Words, b.Digest, carry[b.Hdr.CPU])
		events += uint64(b.Digest.Sum.Events)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("store: ingest %s: no events in spill", tenantName)
	}
	slices.Sort(order)

	// Reserve ids under the catalog lock; files are written unlocked.
	t.mu.Lock()
	upload := t.man.NextUpload
	t.man.NextUpload++
	firstID := t.man.NextSeg
	t.man.NextSeg += uint64(len(order))
	t.mu.Unlock()

	now := s.opt.Now().Unix()
	segs := make([]*segment, 0, len(order))
	for i, w := range order {
		sb := builders[w]
		sg, err := sb.write(t.dir, firstID+uint64(i), upload, now)
		if err != nil {
			for _, g := range segs {
				g.unlink()
			}
			return nil, fmt.Errorf("store: ingest %s: %w", tenantName, err)
		}
		segs = append(segs, sg)
	}

	t.mu.Lock()
	err = t.swap(segs, nil)
	t.mu.Unlock()
	if err != nil {
		for _, g := range segs {
			g.unlink()
		}
		return nil, err
	}

	res := &IngestResult{
		Tenant: tenantName, Upload: upload,
		Events: events, Blocks: len(blocks) - empty, EmptyBlocks: empty,
		Salvaged: !rep.Clean(), Salvage: rep,
	}
	for _, sg := range segs {
		res.Segments = append(res.Segments, sg.info)
	}
	s.metrics.ingest(tenantName, res)
	return res, nil
}

// IngestFile ingests a spill from disk.
func (s *Store) IngestFile(tenant, path string) (*IngestResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return s.Ingest(tenant, f, st.Size())
}

// segBuilder accumulates one output segment: block payloads plus the
// in-memory FullIndex that becomes its sidecar, built from the digests the
// scan took of the blocks' events instead of re-reading the file after
// writing it.
type segBuilder struct {
	meta    stream.Meta
	hdrs    []stream.BlockHeader
	words   [][]uint64
	sums    []stream.BlockSummary
	nextSeq []uint64 // per-CPU renumbering
	entry   []uint64 // per-CPU entry pid (the carry when the CPU first appears)
	seen    []bool
	lastOf  []int // per-CPU index of the CPU's latest block, for Start clamping
	minT    uint64
	maxT    uint64
	events  uint64
}

func newSegBuilder(meta stream.Meta) *segBuilder {
	return &segBuilder{
		meta:    meta,
		nextSeq: make([]uint64, meta.CPUs),
		entry:   make([]uint64, meta.CPUs),
		seen:    make([]bool, meta.CPUs),
		lastOf:  initLast(meta.CPUs),
	}
}

func initLast(n int) []int {
	l := make([]int, n)
	for i := range l {
		l[i] = -1
	}
	return l
}

// add appends one block — its header, its words, which the builder holds
// until the segment is written, and the digest of its events — and returns
// the pid carry after it. The block's summary is identical to what
// BuildFullIndex would compute when reopening the written segment with
// this builder's entry pids as seed.
func (sb *segBuilder) add(h stream.BlockHeader, words []uint64, d *stream.BlockDigest, entryPid uint64) (nextPid uint64) {
	cpu := h.CPU
	if !sb.seen[cpu] {
		sb.seen[cpu] = true
		sb.entry[cpu] = entryPid
	}
	h.Seq = sb.nextSeq[cpu]
	sb.nextSeq[cpu]++

	nextPid = d.Enter(entryPid)
	bs := d.Sum
	bs.CPU = cpu
	bs.Seq = h.Seq
	start, anchored := stream.AnchorTimeWords(words)
	bs.Start, bs.Flagged = start, !anchored
	if p := sb.lastOf[cpu]; p >= 0 && start < sb.sums[p].Start {
		bs.Start = sb.sums[p].Start
		bs.Flagged = true
	}

	if sb.events == 0 || bs.MinTime < sb.minT {
		sb.minT = bs.MinTime
	}
	if bs.MaxTime > sb.maxT {
		sb.maxT = bs.MaxTime
	}
	sb.events += uint64(bs.Events)
	sb.lastOf[cpu] = len(sb.sums)
	sb.hdrs = append(sb.hdrs, h)
	sb.words = append(sb.words, words)
	sb.sums = append(sb.sums, bs)
	return nextPid
}

// write materializes the segment file and its index sidecar, returning
// the (not yet committed) segment handle.
func (sb *segBuilder) write(dir string, id, upload uint64, created int64) (*segment, error) {
	name := fmt.Sprintf("seg-%08d.ktr", id)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	wr, err := stream.NewWriter(f, sb.meta)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	for i := range sb.hdrs {
		if err := wr.WriteBlock(sb.hdrs[i], sb.words[i]); err != nil {
			f.Close()
			os.Remove(path)
			return nil, err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	fi := &stream.FullIndex{Meta: sb.meta, Blocks: sb.sums}
	if err := stream.SaveIndex(stream.IndexSidecarPath(path), fi); err != nil {
		os.Remove(path)
		return nil, err
	}
	info := SegmentInfo{
		ID: id, File: name, Upload: upload,
		MinTime: sb.minT, MaxTime: sb.maxT,
		Events: sb.events, Blocks: len(sb.hdrs), Bytes: st.Size(),
		Created:  created,
		BufWords: sb.meta.BufWords, CPUs: sb.meta.CPUs, ClockHz: sb.meta.ClockHz,
		EntryPids: append([]uint64(nil), sb.entry...),
	}
	return &segment{info: info, path: path, fi: fi}, nil
}
