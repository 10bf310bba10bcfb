package faultinject

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"k42trace/internal/stream"
)

// Image corrupts a complete trace file held in memory. It parses the file
// header once to learn the block geometry, then applies targeted,
// seeded damage: the file-side faults of the injection matrix (bit-flipped
// headers, garbled payloads and anchors, zero-filled regions, torn writes,
// truncated tails, blocks out of sequence or delivered twice). The original
// bytes are copied, never modified.
type Image struct {
	data []byte
	meta stream.Meta
	geo  stream.Geometry
	rng  *rand.Rand
	log  []string
}

// OpenImage copies a trace file's bytes and prepares them for corruption.
func OpenImage(data []byte, seed int64) (*Image, error) {
	meta, err := stream.ParseFileHeader(data)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %w", err)
	}
	return &Image{
		data: append([]byte(nil), data...),
		meta: meta,
		geo:  meta.Geometry(),
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

// Bytes returns the (possibly corrupted) file image.
func (im *Image) Bytes() []byte { return im.data }

// Meta returns the file metadata parsed at open.
func (im *Image) Meta() stream.Meta { return im.meta }

// NumBlocks returns the number of whole blocks currently in the image.
func (im *Image) NumBlocks() int {
	return (len(im.data) - im.geo.FileHeaderBytes) / im.geo.BlockBytes
}

// Log returns a human-readable line per fault applied, for reports.
func (im *Image) Log() []string { return im.log }

func (im *Image) blockOff(k int) int { return im.geo.FileHeaderBytes + k*im.geo.BlockBytes }

// CorruptBlockMagic flips one random bit in block k's magic word. Any
// single-bit change breaks the magic, so this guarantees quarantine of
// exactly block k.
func (im *Image) CorruptBlockMagic(k int) {
	off := im.blockOff(k)
	bit := flipBit(im.rng, im.data, off, off+8)
	note(&im.log, "block %d: flipped magic bit %d", k, bit-off*8)
}

// FlipPayloadBits flips n random bits in block k's payload, garbling
// events the decoder must skip past.
func (im *Image) FlipPayloadBits(k, n int) {
	lo := im.blockOff(k) + im.geo.BlockHeaderBytes
	hi := im.blockOff(k) + im.geo.BlockBytes
	for i := 0; i < n; i++ {
		flipBit(im.rng, im.data, lo, hi)
	}
	note(&im.log, "block %d: flipped %d payload bits", k, n)
}

// ZeroPayload zero-fills `words` words of block k's payload starting at a
// seeded offset — a hole such as a lost page of a memory-mapped buffer.
func (im *Image) ZeroPayload(k, words int) {
	if words > im.meta.BufWords {
		words = im.meta.BufWords
	}
	start := im.rng.Intn(im.meta.BufWords - words + 1)
	lo := im.blockOff(k) + im.geo.BlockHeaderBytes + start*8
	for i := 0; i < words*8; i++ {
		im.data[lo+i] = 0
	}
	note(&im.log, "block %d: zeroed %d words at word %d", k, words, start)
}

// TearBlock simulates a torn block write: the first keepWords payload
// words of block k reached the disk, the rest is zero. keepWords < 0
// picks a seeded tear point.
func (im *Image) TearBlock(k, keepWords int) {
	if keepWords < 0 {
		keepWords = im.rng.Intn(im.meta.BufWords)
	}
	lo := im.blockOff(k) + im.geo.BlockHeaderBytes + keepWords*8
	hi := im.blockOff(k) + im.geo.BlockBytes
	for i := lo; i < hi; i++ {
		im.data[i] = 0
	}
	note(&im.log, "block %d: torn after %d words", k, keepWords)
}

// GarbleAnchor overwrites the full timestamp of block k's leading clock
// anchor with a seeded time far in the future. The block stays well formed
// and every one of its events decodes, under a wrong epoch: its CPU's
// stream steps back where the next block begins.
func (im *Image) GarbleAnchor(k int) {
	t := uint64(1+im.rng.Intn(1<<16)) << 40
	binary.LittleEndian.PutUint64(im.data[im.blockOff(k)+im.geo.BlockHeaderBytes+8:], t)
	note(&im.log, "block %d: anchor time overwritten with %#x", k, t)
}

// SwapBlocks exchanges blocks i and j whole, headers included — delivery
// out of sequence, when both are one CPU's.
func (im *Image) SwapBlocks(i, j int) {
	tmp := append([]byte(nil), im.block(i)...)
	copy(im.block(i), im.block(j))
	copy(im.block(j), tmp)
	note(&im.log, "blocks %d and %d: swapped", i, j)
}

// DuplicateBlock appends a second copy of block k to the image: a block
// delivered twice.
func (im *Image) DuplicateBlock(k int) {
	im.data = append(im.data, im.block(k)...)
	note(&im.log, "block %d: duplicated at the tail", k)
}

// block is the bytes of whole block k.
func (im *Image) block(k int) []byte { return im.data[im.blockOff(k):im.blockOff(k+1)] }

// TruncateTail removes the final n bytes of the image — a copy or
// transfer that stopped early.
func (im *Image) TruncateTail(n int) {
	if n > len(im.data) {
		n = len(im.data)
	}
	im.data = im.data[:len(im.data)-n]
	note(&im.log, "truncated %d tail bytes", n)
}

// TruncateMidFinalBlock cuts the file at a seeded point strictly inside
// the last block, after its header — the classic crashed-collector file.
// It returns the number of bytes removed.
func (im *Image) TruncateMidFinalBlock() int {
	last := im.NumBlocks() - 1
	lo := im.blockOff(last) + im.geo.BlockHeaderBytes + 8
	hi := im.blockOff(last) + im.geo.BlockBytes
	cut := lo + im.rng.Intn(hi-lo)
	cut -= cut % 8 // keep the surviving tail word-aligned
	n := len(im.data) - cut
	im.data = im.data[:cut]
	note(&im.log, "truncated mid final block: cut %d bytes at offset %d", n, cut)
	return n
}
