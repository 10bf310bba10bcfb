package faultinject

import (
	"k42trace/internal/core"
	"k42trace/internal/event"
	"k42trace/internal/ksim"
)

// SyntheticWorkload logs rounds of a fixed sched/syscall/lock pattern
// attributed to logical process pid on s, returning the events logged.
// The handle may be a Tracer's (in-process) or a shared segment's
// (cross-process) — the same workload runs against both and must analyze
// identically. The sequence is deterministic: with a deterministic clock,
// two runs of the same rounds on the same CPU slot produce identical
// buffer words.
func SyntheticWorkload(s core.CPU, pid uint64, rounds int) int {
	logged := 0
	count := func(ok bool) {
		if ok {
			logged++
		}
	}
	for i := 0; i < rounds; i++ {
		count(s.Log3(event.MajorSched, ksim.EvSchedSwitch, 0, pid, pid<<8))
		nr := uint64(i % 7)
		count(s.Log2(event.MajorSyscall, ksim.EvSyscallEnter, pid, nr))
		count(s.Log2(event.MajorSyscall, ksim.EvSyscallExit, pid, nr))
		if i%5 == 4 {
			lock := 0xe100 + pid
			count(s.Log2(event.MajorLock, ksim.EvLockStartWait, lock, pid))
			count(s.Log4(event.MajorLock, ksim.EvLockAcquired, lock, 120, 3, pid))
		}
	}
	return logged
}
