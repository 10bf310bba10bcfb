package ksim

// OpKind enumerates the operations a simulated thread can perform. Each
// op is executed atomically at the thread's CPU's current virtual time;
// the scheduler may preempt between ops.
type OpKind int

const (
	// OpCompute burns Ns nanoseconds of user-mode computation.
	OpCompute OpKind = iota
	// OpSyscall enters the kernel for syscall Nr with Ns of kernel work.
	OpSyscall
	// OpOpen opens Path: a syscall, a PPC into the file server, a dentry
	// lookup per path component, and a handle allocation.
	OpOpen
	// OpRead reads Bytes from Path (must be open-ed first in the script,
	// though the simulator tolerates reads of never-opened paths).
	OpRead
	// OpWrite writes Bytes to Path.
	OpWrite
	// OpClose closes Path.
	OpClose
	// OpStat performs a lookup of Path without opening it.
	OpStat
	// OpAlloc allocates Bytes through the user-level allocator chain
	// (AllocRegionManager -> PMalloc -> GMalloc), hosted in baseServers.
	OpAlloc
	// OpFree frees the most recent allocation.
	OpFree
	// OpTouch touches Pages fresh pages, taking a page fault for each.
	OpTouch
	// OpFork creates a child process running Child and schedules it on the
	// least-loaded CPU.
	OpFork
	// OpUser logs an application-defined trace event (Minor, Payload) —
	// the "cheap and parallel logging of events by applications" path.
	OpUser
	// OpBarrier waits at Barrier until its whole group arrives (HPC-style
	// synchronization; see Kernel.NewBarrier).
	OpBarrier
	// OpSpawn creates another thread in the calling process, running
	// Child's ops — processes are multithreaded, and threads of one
	// process log in parallel from whichever CPUs schedule them.
	OpSpawn
)

// Op is one operation in a script.
type Op struct {
	Kind    OpKind
	Ns      uint64   // OpCompute, OpSyscall: work duration
	Nr      int      // OpSyscall: syscall number
	Path    string   // file ops
	Bytes   uint64   // OpRead/OpWrite/OpAlloc
	Pages   int      // OpTouch
	Child   *Script  // OpFork: child process; OpSpawn: thread body
	Minor   uint16   // OpUser
	Payload uint64   // OpUser
	Barrier *Barrier // OpBarrier
}

// Script is a straight-line program for one thread, and the unit of SDET
// throughput ("a series of independent scripts that simulate a typical
// Unix time-shared environment").
type Script struct {
	Name string
	Ops  []Op
}

// Process is a simulated process: an address space and identity shared by
// one or more threads.
type Process struct {
	pid      uint64
	name     string
	topLevel bool
	live     int    // live threads
	allocs   int    // outstanding allocations (for OpFree bookkeeping)
	faultVA  uint64 // next fresh page address for OpTouch faults
}

// Thread is the schedulable entity: one thread of a process, with its own
// program and position. Thread IDs are formatted like K42's kernel thread
// pointers, which is how they appear in event listings ("PGFLT, kernel
// thread 80000000c12b0f90, ...").
type Thread struct {
	tid     uint64
	proc    *Process
	ops     []Op
	ip      int
	sym     SymID  // symbol for this thread's user-mode computation
	readyAt uint64 // virtual time at which the thread became runnable
	main    bool
	// ioWaited marks that the current op already paid its disk wait, so
	// the re-execution after the wake runs as a cache hit.
	ioWaited bool
}

// pid is shorthand for the owning process's id.
func (t *Thread) pid() uint64 { return t.proc.pid }
