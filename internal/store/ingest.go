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
// the manifest swap: a failed ingest removes what it wrote, and a crash
// mid-ingest leaves only orphan files that the next Open sweeps.
//
// r is read twice — scanned, then copied block by block into the segment
// files — and must not change during the call. Ingest holds one block's
// words at a time, in the scan worker's scratch and then in the segment
// writer's stride buffer, whatever the spill's size.
func (s *Store) Ingest(tenantName string, r io.ReaderAt, size int64) (res *IngestResult, err error) {
	t, err := s.tenantOrCreate(tenantName)
	if err != nil {
		return nil, err
	}
	blocks, rep, err := stream.SalvageBlocks(r, size, s.opt.Workers, s.scratch)
	if err != nil {
		return nil, fmt.Errorf("store: ingest %s: %w", tenantName, err)
	}
	if rep.BlocksGood == 0 {
		return nil, fmt.Errorf("store: ingest %s: no decodable blocks", tenantName)
	}

	// Plan: partition blocks into SegmentSpan windows by exact first-event
	// time. Iteration is cpu-major in per-CPU sequence order (SalvageBlocks
	// guarantees it), which is what the per-CPU entry-pid carry needs, and
	// each window's list receives every CPU's blocks in that order. The scan
	// kept a digest of each block and none of its words: planning reads only
	// digests.
	span := s.opt.SegmentSpan
	plan := map[uint64][]int{} // window -> indices into blocks
	var order []uint64
	carry := make([]uint64, rep.Meta.CPUs)
	empty := 0
	var events uint64
	for i := range blocks {
		b := &blocks[i]
		if b.Digest.Sum.Events == 0 {
			empty++
			continue
		}
		var w uint64
		if span != 0 {
			w = b.Digest.FirstTime / span
		}
		if plan[w] == nil {
			order = append(order, w)
		}
		plan[w] = append(plan[w], i)
		carry[b.Hdr.CPU] = b.Digest.Enter(carry[b.Hdr.CPU])
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

	// Copy, window by window, so that one segment file is open at a time
	// however many windows the spill spans: each block goes from the spill
	// to its place in its segment file through the writer's stride buffer.
	sb, err := newSegBuilder(t.dir, rep.Meta)
	if err != nil {
		return nil, fmt.Errorf("store: ingest %s: %w", tenantName, err)
	}
	segs := make([]*segment, 0, len(order))
	defer func() {
		if err != nil {
			sb.abort()
			for _, g := range segs {
				g.unlink()
			}
		}
	}()
	now := s.opt.Now().Unix()
	for i, w := range order {
		if err = sb.begin(firstID + uint64(i)); err != nil {
			return nil, fmt.Errorf("store: ingest %s: %w", tenantName, err)
		}
		for _, k := range plan[w] {
			b := &blocks[k]
			if err = sb.wr.CopyBlock(r, b.Digest.Off, sb.place(b.Hdr, b.Digest)); err != nil {
				return nil, fmt.Errorf("store: ingest %s: %w", tenantName, err)
			}
			killpoint("ingest-mid-segment")
		}
		sg, err := sb.finish(upload, now)
		if err != nil {
			return nil, fmt.Errorf("store: ingest %s: %w", tenantName, err)
		}
		segs = append(segs, sg)
	}

	t.mu.Lock()
	err = t.swap(segs, nil)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}

	res = &IngestResult{
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

// segBuilder writes an ingest's or a merge's output segments through, one
// after another: begin creates a segment's file, each block is placed
// (place) and written by the caller through wr, and what the builder keeps
// of a block is its row of the FullIndex that becomes the sidecar — built
// from the digest the scan took of the block's events instead of re-reading
// the file after writing it. finish completes segment and sidecar; every
// failure, the builder's or the caller's, ends in abort, which leaves
// nothing of the segment behind.
//
// The segments share wr, and with it one stride buffer. A stream.Writer
// puts the file header out when it is made, so it is made over the builder
// itself before any file is open: Write keeps the header then, and begin
// starts each file with it.
type segBuilder struct {
	dir     string
	meta    stream.Meta
	wr      *stream.Writer
	fileHdr []byte
	segState
}

// segState is the segment a segBuilder is writing; begin starts it afresh.
type segState struct {
	id      uint64
	path    string
	f       *os.File
	sums    []stream.BlockSummary
	nextSeq []uint64 // per-CPU renumbering
	entry   []uint64 // per-CPU entry pid (the carry when the CPU first appears)
	seen    []bool
	minT    uint64
	maxT    uint64
	events  uint64
}

func newSegBuilder(dir string, meta stream.Meta) (*segBuilder, error) {
	sb := &segBuilder{dir: dir, meta: meta}
	var err error
	sb.wr, err = stream.NewWriter(sb, meta)
	return sb, err
}

// Write is wr's way to the segment file. With no file open it is NewWriter
// putting the file header out, which is kept.
func (sb *segBuilder) Write(p []byte) (int, error) {
	if sb.f == nil {
		sb.fileHdr = append(sb.fileHdr, p...)
		return len(p), nil
	}
	return sb.f.Write(p)
}

// begin creates segment id's file and writes its header.
func (sb *segBuilder) begin(id uint64) error {
	n := sb.meta.CPUs
	sb.segState = segState{
		id:      id,
		path:    filepath.Join(sb.dir, fmt.Sprintf("seg-%08d.ktr", id)),
		nextSeq: make([]uint64, n),
		entry:   make([]uint64, n),
		seen:    make([]bool, n),
	}
	f, err := os.Create(sb.path)
	if err != nil {
		return err
	}
	sb.f = f
	if _, err := f.Write(sb.fileHdr); err != nil {
		sb.abort()
		return err
	}
	return nil
}

// place gives the next block its place in the segment: it returns h
// renumbered to the segment's per-CPU sequence, for the caller to write the
// block under, and keeps the block's summary row. d is the block's digest
// with its entry pid entered; the row is identical to what BuildFullIndex
// would compute when reopening the written segment with this builder's
// entry pids as seed.
func (sb *segBuilder) place(h stream.BlockHeader, d *stream.BlockDigest) stream.BlockHeader {
	cpu := h.CPU
	if !sb.seen[cpu] {
		sb.seen[cpu] = true
		sb.entry[cpu] = d.Sum.EntryPid
	}
	h.Seq = sb.nextSeq[cpu]
	sb.nextSeq[cpu]++

	bs := d.Sum
	bs.CPU, bs.Seq = cpu, h.Seq
	if sb.events == 0 || bs.MinTime < sb.minT {
		sb.minT = bs.MinTime
	}
	if bs.MaxTime > sb.maxT {
		sb.maxT = bs.MaxTime
	}
	sb.events += uint64(bs.Events)
	sb.sums = append(sb.sums, bs)
	return h
}

// finish closes the segment file and saves its index sidecar, returning the
// (not yet committed) segment handle. A failure aborts the builder.
func (sb *segBuilder) finish(upload uint64, created int64) (*segment, error) {
	st, err := sb.f.Stat()
	if err == nil {
		err = sb.f.Close()
		sb.f = nil
	}
	fi := &stream.FullIndex{Meta: sb.meta, Blocks: sb.sums}
	if err == nil {
		err = stream.SaveIndex(stream.IndexSidecarPath(sb.path), fi)
	}
	if err != nil {
		sb.abort()
		return nil, err
	}
	info := SegmentInfo{
		ID: sb.id, File: filepath.Base(sb.path), Upload: upload,
		MinTime: sb.minT, MaxTime: sb.maxT,
		Events: sb.events, Blocks: len(sb.sums), Bytes: st.Size(),
		Created:  created,
		BufWords: sb.meta.BufWords, CPUs: sb.meta.CPUs, ClockHz: sb.meta.ClockHz,
		EntryPids: sb.entry,
	}
	return &segment{info: info, path: sb.path, fi: fi}, nil
}

// abort is where every failing path of a segment's writing ends: it closes
// the file and removes the segment, its sidecar and the sidecar's tmp,
// whichever of them exist. It may follow finish, whose segment it removes.
func (sb *segBuilder) abort() {
	if sb.path == "" {
		return // no segment begun
	}
	if sb.f != nil {
		sb.f.Close()
		sb.f = nil
	}
	side := stream.IndexSidecarPath(sb.path)
	os.Remove(sb.path)
	os.Remove(side)
	os.Remove(side + ".tmp")
}
