package shm

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// segment is a mapped segment file: the byte mapping, its word view, and
// the decoded layout. All protocol traffic goes through atomic operations
// on words of the mapping; the page-aligned mapping plus word-granular
// offsets guarantee the 8-byte alignment the atomics need.
type segment struct {
	f     *os.File
	mem   []byte
	words []uint64
	lay   layout
}

// wordAtomic views one mapped word as an atomic.Uint64, which is a plain
// uint64 in memory; the conversion is what lets core.Arena's mask pointer
// live inside the mapping.
func wordAtomic(words []uint64, i int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&words[i]))
}

func mapFile(f *os.File, size int, prot int) (*segment, error) {
	mem, err := syscall.Mmap(int(f.Fd()), 0, size, prot, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shm: mmap %s: %w", f.Name(), err)
	}
	return &segment{
		f:     f,
		mem:   mem,
		words: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), size/8),
	}, nil
}

// createSegment creates (or truncates) the segment file, sizes it, maps
// it, and writes the immutable header fields. The caller must publish the
// segment by storing segReady into the state word once the rest of its
// initialization (clocks, arenas) is done; until then attachers are
// rejected. Truncating to the final size guarantees the mapping starts
// zero-filled, which is what makes never-written reservations decode as
// clean skip-able holes.
func createSegment(path string, g Geometry) (*segment, error) {
	lay, err := computeLayout(g)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shm: create segment: %w", err)
	}
	size := lay.totalWords * 8
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: size segment to %d bytes: %w", size, err)
	}
	s, err := mapFile(f, size, syscall.PROT_READ|syscall.PROT_WRITE)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.lay = lay
	w := s.words
	w[hdrMagic] = segMagic
	w[hdrVersion] = segVersion
	w[hdrBufWords] = uint64(lay.geo.BufWords)
	w[hdrNumBufs] = uint64(lay.geo.NumBufs)
	w[hdrCPUs] = uint64(lay.geo.CPUs)
	w[hdrMaxClients] = uint64(lay.geo.MaxClients)
	if lay.geo.DeterministicClock {
		w[hdrClockMode] = clockDeterministic
	} else {
		w[hdrClockMode] = clockMonotonic
	}
	// state is segCreating (zero) until the agent publishes.
	return s, nil
}

// openSegment maps an existing segment file and validates its header
// against the file size. With readOnly the mapping is PROT_READ, which is
// all inspection needs (atomic loads work on read-only pages).
func openSegment(path string, readOnly bool) (*segment, error) {
	flags, prot := os.O_RDWR, syscall.PROT_READ|syscall.PROT_WRITE
	if readOnly {
		flags, prot = os.O_RDONLY, syscall.PROT_READ
	}
	f, err := os.OpenFile(path, flags, 0)
	if err != nil {
		return nil, fmt.Errorf("shm: open segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: stat segment: %w", err)
	}
	if fi.Size() < hdrWords*8 || fi.Size()%8 != 0 {
		f.Close()
		return nil, fmt.Errorf("shm: %s: implausible segment size %d", path, fi.Size())
	}
	s, err := mapFile(f, int(fi.Size()), prot)
	if err != nil {
		f.Close()
		return nil, err
	}
	w := s.words
	if w[hdrMagic] != segMagic {
		s.close()
		return nil, fmt.Errorf("shm: %s is not a trace segment (bad magic)", path)
	}
	if v := w[hdrVersion]; v != segVersion {
		s.close() // unmaps w: read v before, not after
		return nil, fmt.Errorf("shm: %s: unsupported segment version %d (this build reads %d)",
			path, v, segVersion)
	}
	g := Geometry{
		CPUs:               int(w[hdrCPUs]),
		BufWords:           int(w[hdrBufWords]),
		NumBufs:            int(w[hdrNumBufs]),
		MaxClients:         int(w[hdrMaxClients]),
		DeterministicClock: w[hdrClockMode] == clockDeterministic,
	}
	lay, err := computeLayout(g)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("shm: %s: %w", path, err)
	}
	if lay.totalWords*8 != int(fi.Size()) {
		s.close()
		return nil, fmt.Errorf("shm: %s: size %d does not match geometry (want %d)",
			path, fi.Size(), lay.totalWords*8)
	}
	s.lay = lay
	return s, nil
}

func (s *segment) state() uint64 { return wordAtomic(s.words, hdrState).Load() }

// leaseNow returns the current instant in the segment's lease timebase:
// monotonic ticks since hdrBaseMonoNano, correct whatever the *event*
// clock mode, including deterministic, whose tick counters must not be
// perturbed by lease bookkeeping.
func (s *segment) leaseNow() uint64 {
	return uint64(nanotime() - int64(s.words[hdrBaseMonoNano]))
}

// ring bumps the drain doorbell after a seal and wakes the agent if (and
// only if) it is parked on the futex word. The common case — agent awake
// or mid-drain — is one atomic add and one load, no syscall, preserving
// the "no system call overhead" property of the logging path.
func (s *segment) ring() {
	wordAtomic(s.words, hdrDoorbell).Add(1)
	if wordAtomic(s.words, hdrAgentWait).Load() != 0 {
		futexWake(doorbellFutexWord(s.words))
	}
}

func (s *segment) close() error {
	err := syscall.Munmap(s.mem)
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.mem, s.words = nil, nil
	return err
}
