package stream

import (
	"io"

	"k42trace/internal/event"
)

// SalvagedBlock is one surviving block of a (possibly damaged) trace: its
// header, raw payload words, and decoded events. The header is the one
// SalvageTo would have written — a clipped truncated tail is re-marked
// partial with NWords matching the surviving words. The payloads of Events
// alias Words: whoever keeps the events keeps the words, unmodified.
type SalvagedBlock struct {
	Hdr    BlockHeader
	Words  []uint64
	Events []event.Event
}

// SalvageBlocks runs the salvage scan and returns the surviving blocks in
// write-out order (CPUs ascending, per-CPU sequence order, duplicates
// dropped), plus the salvage report. It is SalvageTo without the writer:
// callers that partition blocks — a time-sharded store splitting one spill
// into many segment files — consume exactly the clean block sequence
// SalvageTo would have written, with the decoded events alongside so the
// partitioning key (time) needs no second decode pass.
func SalvageBlocks(r io.ReaderAt, size int64, workers int) ([]SalvagedBlock, *SalvageReport, error) {
	perCPU, rep, err := salvageScan(r, size, workers)
	if err != nil {
		return nil, nil, err
	}
	var out []SalvagedBlock
	for _, cb := range perCPU {
		for _, b := range cb.blocks {
			h := b.hdr
			if h.NWords != len(b.words) {
				// Truncated final block: keep only the words that survived.
				h.NWords = len(b.words)
				h.Flags |= FlagPartial
			}
			out = append(out, SalvagedBlock{Hdr: h, Words: b.words, Events: b.evs})
		}
	}
	return out, rep, nil
}
