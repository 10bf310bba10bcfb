// The trace file's one index, and its sidecar:
//
//   - FullIndex: per-block summaries (exact event-time bounds, a major
//     bitmask, and bloom filters over (major,minor) pairs and attributed
//     pids) that let a query — or a window read, EventsBetween — scan only
//     the blocks that could possibly match its predicates, and
//   - a versioned, checksummed on-disk sidecar (<trace>.kix) so reopening
//     a large trace costs one small sequential read instead of decoding
//     every block; a corrupt, stale or other-version sidecar falls back to
//     a rebuild.
package stream

import (
	"fmt"
	"os"

	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// IndexMagic begins every index sidecar file ("K42TRIX1" little-endian).
const IndexMagic uint64 = 0x315849525432344B

// IndexVersion is the sidecar format version. Bump it whenever the record
// layout or the summary semantics change; readers reject other versions
// and rebuild. Version 2 records are 15 words; version 1's were 16, with an
// anchor start time and a flag that nothing read.
const IndexVersion = 2

// IndexSidecarSuffix is appended to a trace path to name its sidecar.
const IndexSidecarSuffix = ".kix"

// IndexSidecarPath returns the sidecar path for a trace file.
func IndexSidecarPath(tracePath string) string { return tracePath + IndexSidecarSuffix }

// Bloom is a 256-bit bloom filter with two probes — small enough that a
// per-block array of them stays cheap, selective enough to prune most
// blocks for point predicates over pids or minors.
type Bloom [4]uint64

// bloomMix is splitmix64: two independent probe positions are derived from
// the high and low halves of the mixed key.
func bloomMix(k uint64) uint64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// Add inserts a key.
func (b *Bloom) Add(key uint64) {
	h := bloomMix(key)
	i, j := h&255, (h>>32)&255
	b[i>>6] |= 1 << (i & 63)
	b[j>>6] |= 1 << (j & 63)
}

// MayContain reports whether key might have been added (no false
// negatives; false positives only cost pruning effectiveness, never
// correctness).
func (b *Bloom) MayContain(key uint64) bool {
	h := bloomMix(key)
	i, j := h&255, (h>>32)&255
	return b[i>>6]&(1<<(i&63)) != 0 && b[j>>6]&(1<<(j&63)) != 0
}

// MinorKey is the bloom key for a (major, minor) pair.
func MinorKey(major event.Major, minor uint16) uint64 {
	return uint64(major)<<16 | uint64(minor)
}

// BlockSummary is everything a pruned scan needs to know about one block
// without reading it.
type BlockSummary struct {
	CPU int
	Seq uint64
	// MinTime and MaxTime bound the decoded event times exactly (both zero
	// when the block decodes to no events), so time pruning never relies on
	// possibly-garbled anchors.
	MinTime, MaxTime uint64
	// Events is the decoded event count.
	Events uint32
	// EntryPid is the scheduled pid on this CPU when the block begins —
	// the carry state a pid-predicate scan needs to attribute events
	// logged before the block's first SCHED_SWITCH.
	EntryPid uint64
	// MajorMask has bit m set iff some event of major m is in the block.
	MajorMask uint64
	// PidBloom holds every pid an event in the block can be attributed to
	// (EntryPid plus all switch targets); MinorBloom holds MinorKey of
	// every event.
	PidBloom, MinorBloom Bloom
}

// Overlaps reports whether the block can contain events in [from, to).
func (bs *BlockSummary) Overlaps(from, to uint64) bool {
	return bs.Events > 0 && bs.MaxTime >= from && bs.MinTime < to
}

// FullIndex is a per-block summary index over one trace file, in file
// order: exact time bounds plus the predicate summaries a query planner
// prunes with.
type FullIndex struct {
	Meta   Meta
	Blocks []BlockSummary
}

// BlockDigest is what is left of a block once its words and events are
// gone: the part of its index summary that needs no carry from the blocks
// before it, the time of its first event, and where it lies in the source.
// DigestBlock computes it from the block's words a chunk of events at a
// time, so that a writer who indexes what it writes — a store ingesting a
// spill or merging segments — holds neither to do it.
type BlockDigest struct {
	// Sum has Events, MinTime, MaxTime, MajorMask, MinorBloom and the
	// switch targets in PidBloom. CPU and Seq are for whoever places the
	// block in a file; Enter adds the entry pid.
	Sum BlockSummary
	// FirstTime is the time of the block's first event in stream order
	// (zero for a block without events), which need not be MinTime.
	FirstTime uint64
	// Off is the byte offset of the block's header in the scanned source
	// (of the fragment, for a truncated tail), for Writer.CopyBlock. It is
	// the scan's to set: DigestBlock leaves it zero.
	Off int64

	exitPid  uint64 // the last pid the block switched to,
	switched bool   // if it switched at all
}

// DigestBlock is the one block digest, under every scan that reduces a block
// to its summary — a salvage scan that keeps digests (SalvageBlocks, and so
// a store's ingest and SalvageTo), a store's compaction and BuildFullIndex.
// It decodes words, the payload of one of cpu's blocks, a chunk at a time into
// the first chainChunk slots of sc.Events and folds each chunk into the
// digest, so the scratch is a chunk whatever the block holds and no slice of
// the block's events ever exists. It returns the block's decode statistics
// besides.
func DigestBlock(cpu int, words []uint64, sc *BlockScratch) (BlockDigest, core.DecodeStats) {
	if cap(sc.Events) < chainChunk {
		sc.Events = make([]event.Event, 0, chainChunk)
	}
	return digestChunks(cpu, words, sc.Events[:0:chainChunk])
}

// digestChunks is DigestBlock with the chunk its caller's: a block decodes
// into chunk, cap(chunk) events at a time.
func digestChunks(cpu int, words []uint64, chunk []event.Event) (d BlockDigest, st core.DecodeStats) {
	var dec core.Decoder
	dec.Reset(cpu, words)
	for !dec.Done() {
		d.add(dec.Fill(chunk[:0]))
	}
	return d, dec.Stats()
}

// add folds the block's next events in stream order into d: everything that
// needs no carry from the blocks before. Counts add, times take min and max,
// majors and both blooms OR, and the last switch names the exit pid, so a
// block folded a chunk at a time digests as it would whole.
func (d *BlockDigest) add(evs []event.Event) {
	bs := &d.Sum
	for i := range evs {
		e := &evs[i]
		if bs.Events == 0 {
			d.FirstTime, bs.MinTime = e.Time, e.Time
		}
		bs.Events++
		bs.MinTime = min(bs.MinTime, e.Time)
		bs.MaxTime = max(bs.MaxTime, e.Time)
		bs.MajorMask |= e.Major().Bit()
		bs.MinorBloom.Add(MinorKey(e.Major(), e.Minor()))
		if e.Major() == event.MajorSched && e.Minor() == ksim.EvSchedSwitch && len(e.Data) >= 2 {
			d.exitPid, d.switched = e.Data[1], true
			bs.PidBloom.Add(d.exitPid)
		}
	}
}

// Enter completes d.Sum with entryPid, the pid scheduled on the block's
// CPU when it begins, exactly as BuildFullIndex's carry pass does. It
// returns the pid scheduled after the block: the next block's entry pid.
func (d *BlockDigest) Enter(entryPid uint64) (nextPid uint64) {
	return enterBlock(&d.Sum, entryPid, d.exitPid, d.switched)
}

// enterBlock is the carry step: it records the pid scheduled when the
// block begins and returns the one scheduled when it ends.
func enterBlock(bs *BlockSummary, entryPid, lastPid uint64, switched bool) (nextPid uint64) {
	bs.EntryPid = entryPid
	bs.PidBloom.Add(entryPid)
	if switched {
		return lastPid
	}
	return entryPid
}

// BuildFullIndex digests every block (fanning over up to `workers`
// goroutines; <= 0 means GOMAXPROCS) and returns the full per-block
// summary index. entrySeed, when non-nil, gives the scheduled pid per CPU
// at the start of the file — non-zero when this file continues an earlier
// stream, as a store segment continues its upload. The per-CPU entry-pid
// carry runs over blocks in file order, which for files written per CPU in
// sequence order (Writer output, SalvageTo output, store segments) is
// stream order.
func (rd *Reader) BuildFullIndex(workers int, entrySeed []uint64) (*FullIndex, error) {
	fi := &FullIndex{Meta: rd.meta, Blocks: make([]BlockSummary, rd.nBlk)}

	// Pass 1 (parallel): digest each block in the worker's scratch. Of
	// what a block cannot know alone, only the pid it last switched to
	// outlives the digest, for pass 2.
	type exit struct {
		pid      uint64
		switched bool
	}
	exits := make([]exit, rd.nBlk)
	errs := rd.eachBlock(workers, nil, func(k int, sc *BlockScratch) error {
		h, words, err := rd.ReadBlockInto(k, &sc.Buf)
		if err != nil {
			return err
		}
		d, _ := DigestBlock(h.CPU, words, sc)
		bs := &fi.Blocks[k]
		*bs = d.Sum
		bs.CPU, bs.Seq = h.CPU, h.Seq
		exits[k] = exit{d.exitPid, d.switched}
		return nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	// Pass 2 (sequential): the entry-pid carry, along each CPU's blocks in
	// file order.
	carry := make([]uint64, rd.meta.CPUs)
	copy(carry, entrySeed)
	for k := range fi.Blocks {
		bs := &fi.Blocks[k]
		carry[bs.CPU] = enterBlock(bs, carry[bs.CPU], exits[k].pid, exits[k].switched)
	}
	return fi, nil
}

// Sidecar layout (little-endian 64-bit words):
//
//	0 magic  1 version  2 checksum(FNV-64a of words[3:])
//	3 bufWords  4 cpus  5 clockHz  6 nBlocks  7 reserved
//	then nBlocks records of blockRecWords words each:
//	0 cpu  1 seq  2 minTime  3 maxTime  4 events  5 entryPid  6 majorMask
//	7–10 pidBloom  11–14 minorBloom
const (
	idxHdrWords   = 8
	blockRecWords = 15
)

// EncodeIndex serializes a FullIndex to sidecar bytes.
func EncodeIndex(fi *FullIndex) []byte {
	b := make([]byte, (idxHdrWords+blockRecWords*len(fi.Blocks))*8)
	putWord(b, 0, IndexMagic)
	putWord(b, 1, IndexVersion)
	putWord(b, 3, uint64(fi.Meta.BufWords))
	putWord(b, 4, uint64(fi.Meta.CPUs))
	putWord(b, 5, fi.Meta.ClockHz)
	putWord(b, 6, uint64(len(fi.Blocks)))
	for k := range fi.Blocks {
		bs := &fi.Blocks[k]
		w := idxHdrWords + k*blockRecWords
		putWord(b, w+0, uint64(bs.CPU))
		putWord(b, w+1, bs.Seq)
		putWord(b, w+2, bs.MinTime)
		putWord(b, w+3, bs.MaxTime)
		putWord(b, w+4, uint64(bs.Events))
		putWord(b, w+5, bs.EntryPid)
		putWord(b, w+6, bs.MajorMask)
		for i := 0; i < 4; i++ {
			putWord(b, w+7+i, bs.PidBloom[i])
			putWord(b, w+11+i, bs.MinorBloom[i])
		}
	}
	putWord(b, 2, idxChecksum(b))
	return b
}

// idxChecksum is FNV-64a over everything after the checksum word.
func idxChecksum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b[3*8:] {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// DecodeIndex parses and verifies sidecar bytes. Any structural problem —
// wrong magic, other version, checksum mismatch, truncation — is an
// error; callers fall back to BuildFullIndex.
func DecodeIndex(b []byte) (*FullIndex, error) {
	if len(b) < idxHdrWords*8 {
		return nil, fmt.Errorf("stream: index sidecar too short (%d bytes)", len(b))
	}
	if getWord(b, 0) != IndexMagic {
		return nil, fmt.Errorf("stream: bad index magic %#x", getWord(b, 0))
	}
	if v := getWord(b, 1); v != IndexVersion {
		return nil, fmt.Errorf("stream: unsupported index version %d", v)
	}
	if got, want := idxChecksum(b), getWord(b, 2); got != want {
		return nil, fmt.Errorf("stream: index checksum mismatch (%#x != %#x)", got, want)
	}
	meta := Meta{
		BufWords: int(getWord(b, 3)),
		CPUs:     int(getWord(b, 4)),
		ClockHz:  getWord(b, 5),
	}
	if err := meta.check(); err != nil {
		return nil, err
	}
	// The count is bounded by the bytes before it is multiplied, so a
	// crafted count cannot wrap the length check.
	n := getWord(b, 6)
	if n > uint64(len(b)/(blockRecWords*8)) || len(b) != (idxHdrWords+blockRecWords*int(n))*8 {
		return nil, fmt.Errorf("stream: index sidecar claims %d blocks, has %d bytes", n, len(b))
	}
	fi := &FullIndex{Meta: meta, Blocks: make([]BlockSummary, n)}
	for k := range fi.Blocks {
		w := idxHdrWords + k*blockRecWords
		bs := &fi.Blocks[k]
		cpu := getWord(b, w+0)
		if cpu >= uint64(meta.CPUs) {
			return nil, fmt.Errorf("stream: index block %d claims CPU %d >= %d", k, cpu, meta.CPUs)
		}
		bs.CPU = int(cpu)
		bs.Seq = getWord(b, w+1)
		bs.MinTime = getWord(b, w+2)
		bs.MaxTime = getWord(b, w+3)
		bs.Events = uint32(getWord(b, w+4))
		bs.EntryPid = getWord(b, w+5)
		bs.MajorMask = getWord(b, w+6)
		for i := 0; i < 4; i++ {
			bs.PidBloom[i] = getWord(b, w+7+i)
			bs.MinorBloom[i] = getWord(b, w+11+i)
		}
	}
	return fi, nil
}

// SaveIndex writes the sidecar atomically (tmp + rename), so a crashed
// writer leaves either the old sidecar or none — never a torn one.
func SaveIndex(path string, fi *FullIndex) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, EncodeIndex(fi), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadIndex reads and verifies a sidecar, additionally checking that it
// describes a trace with the given metadata and block count (a sidecar
// left behind by an overwritten trace file must not be believed).
func LoadIndex(path string, meta Meta, nBlocks int) (*FullIndex, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fi, err := DecodeIndex(b)
	if err != nil {
		return nil, err
	}
	if fi.Meta != meta || len(fi.Blocks) != nBlocks {
		return nil, fmt.Errorf("stream: index sidecar describes %+v/%d blocks, trace is %+v/%d",
			fi.Meta, len(fi.Blocks), meta, nBlocks)
	}
	return fi, nil
}

// LoadOrBuildIndex returns the trace's FullIndex, from the <trace>.kix
// sidecar when one is present, verified, and matches the open reader —
// otherwise it rebuilds from the trace (seeding the pid carry with
// entrySeed) and best-effort rewrites the sidecar for the next open.
// fromSidecar reports which path was taken.
func LoadOrBuildIndex(tracePath string, rd *Reader, workers int, entrySeed []uint64) (fi *FullIndex, fromSidecar bool, err error) {
	side := IndexSidecarPath(tracePath)
	if fi, err := LoadIndex(side, rd.Meta(), rd.NumBlocks()); err == nil {
		return fi, true, nil
	}
	fi, err = rd.BuildFullIndex(workers, entrySeed)
	if err != nil {
		return nil, false, err
	}
	_ = SaveIndex(side, fi) // best-effort: a read-only dir just means a rebuild next time
	return fi, false, nil
}
