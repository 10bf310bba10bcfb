package core

// Stats is a snapshot of tracing counters, either for one CPU or summed
// across all CPUs. The counters themselves live in each arena's control
// words (updated with atomic adds on the logging paths), so per-CPU
// updates never contend across CPUs — and, for shared-memory arenas, so
// every attached process and the daemon see the same numbers.
type Stats struct {
	// Events and Words count successfully logged events and their total
	// size (headers included), excluding fillers and anchors.
	Events uint64
	Words  uint64
	// Retries counts failed CAS attempts in reserve — a direct measure of
	// logging contention within a CPU slot.
	Retries uint64
	// FillerEvents/FillerWords measure alignment waste: the space consumed
	// padding buffer tails so events never cross boundaries (experiment C6).
	FillerEvents uint64
	FillerWords  uint64
	// ExactFit counts events that ended exactly on a buffer boundary and so
	// needed no filler (the paper: "30 to 40 percent of events end exactly
	// on a buffer boundary").
	ExactFit uint64
	// Dropped counts events discarded by the Drop policy or during
	// shutdown; TooLarge counts events rejected for exceeding a buffer.
	Dropped  uint64
	TooLarge uint64
	// Seals counts buffers handed to the Stream consumer; Anchors counts
	// buffer-start clock anchors; BlockWaits counts waits spent on an
	// unreleased slot under the Block policy.
	Seals      uint64
	Anchors    uint64
	BlockWaits uint64
	// StuckSeals counts buffers sealed by stuck-slot reclamation: a
	// writer killed between reserve and commit left the buffer's count
	// short forever, and a later writer needing the slot (or the daemon's
	// liveness scan) sealed it anomalous instead of waiting for a commit
	// that cannot come.
	StuckSeals uint64
	// FastHits counts events that took the batched fast path: appended
	// into an open Batch with plain arithmetic, no reservation CAS of
	// their own. Compare against Events for the fast-path hit rate, and
	// against Retries for how much reservation contention the batching
	// amortized away. Flushed into the shared counters when the batch
	// closes.
	FastHits uint64
	// BatchOpens counts Batch reservations: each is one CAS covering
	// FastHits/BatchOpens events on average.
	BatchOpens uint64
}

// Add returns the elementwise sum of two snapshots.
func (a Stats) Add(b Stats) Stats {
	a.Events += b.Events
	a.Words += b.Words
	a.Retries += b.Retries
	a.FillerEvents += b.FillerEvents
	a.FillerWords += b.FillerWords
	a.ExactFit += b.ExactFit
	a.Dropped += b.Dropped
	a.TooLarge += b.TooLarge
	a.Seals += b.Seals
	a.Anchors += b.Anchors
	a.BlockWaits += b.BlockWaits
	a.StuckSeals += b.StuckSeals
	a.FastHits += b.FastHits
	a.BatchOpens += b.BatchOpens
	return a
}

// Stats returns counters summed across all CPUs.
func (t *Tracer) Stats() Stats {
	var sum Stats
	for _, a := range t.cpus {
		sum = sum.Add(a.Stats())
	}
	return sum
}
