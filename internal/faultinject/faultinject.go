// Package faultinject deterministically corrupts traces at every layer of
// the pipeline, so the robustness the paper designs for — writers killed
// between reserving and logging (§3.1's commit counts), torn or truncated
// trace files, and lossy relay transports — can be exercised on demand
// instead of waited for.
//
// Three injectors cover the three layers:
//
//   - WriterInjector simulates a logging thread preempted or killed after
//     reserving buffer space but before writing its event, using the
//     tracer's own ReserveOnly hook; the commit-count machinery must then
//     flag the buffer anomalous and the decoder must resynchronize.
//   - Image corrupts a complete trace file in memory: bit-flipped file and
//     block headers, flipped payload bits, zero-filled regions, torn block
//     writes, and truncated tails.
//   - Injector wraps an io.Writer carrying the trace wire format and
//     corrupts blocks in flight: drops, duplicates, reorders, tears, and
//     bit flips — the failure modes of a lossy relay transport.
//
// Every injector is seeded and replayable: the same seed over the same
// input produces byte-identical corruption, so fault-injection tests are
// ordinary deterministic tests.
//
// It is test support: its exported names exist for the tests of every
// layer, and only tracerelay's chaos flags, shmlog's workload and the
// benchmark call a few of them from outside a test.
package faultinject

import (
	"fmt"
	"math/rand"

	"k42trace/internal/core"
	"k42trace/internal/event"
)

// WriterFaults configures writer-side kill injection.
type WriterFaults struct {
	Seed int64
	// KillProb is the probability that one MaybeKill call simulates a
	// writer killed between reserve and commit.
	KillProb float64
	// MaxPayloadWords bounds the payload size of an injected dead
	// reservation (0 means header-only reservations).
	MaxPayloadWords int
}

// WriterInjector simulates the paper's motivating writer failure: a
// thread that reserves buffer space and then never logs into it. Sprinkle
// MaybeKill between real Log calls; each injected kill leaves a reserved
// hole whose buffer the tracer must flag anomalous at write-out and whose
// words the decoder must skip.
type WriterInjector struct {
	rng   *rand.Rand
	f     WriterFaults
	kills int
}

// NewWriterInjector returns a seeded writer-side injector.
func NewWriterInjector(f WriterFaults) *WriterInjector {
	return &WriterInjector{rng: rand.New(rand.NewSource(f.Seed)), f: f}
}

// MaybeKill rolls the dice and, on a hit, reserves event space on c
// without ever committing it. It reports whether a kill was injected.
func (wi *WriterInjector) MaybeKill(c core.CPU) bool {
	if wi.rng.Float64() >= wi.f.KillProb {
		return false
	}
	payload := 0
	if wi.f.MaxPayloadWords > 0 {
		payload = wi.rng.Intn(wi.f.MaxPayloadWords + 1)
	}
	if !c.ReserveOnly(event.MajorTest, 0xdead, payload) {
		return false
	}
	wi.kills++
	return true
}

// Kills returns the number of kills injected so far.
func (wi *WriterInjector) Kills() int { return wi.kills }

// flipBit flips one bit inside b[lo:hi], chosen by rng.
func flipBit(rng *rand.Rand, b []byte, lo, hi int) int {
	bit := lo*8 + rng.Intn((hi-lo)*8)
	b[bit/8] ^= 1 << (bit % 8)
	return bit
}

// note formats one fault-log line.
func note(log *[]string, format string, args ...any) {
	*log = append(*log, fmt.Sprintf(format, args...))
}
