package ksim

import (
	"fmt"
	"strings"

	"k42trace/internal/clock"
	"k42trace/internal/core"
	"k42trace/internal/event"
)

// kernelSyms caches the SymIDs of the OS's own code paths. The names are
// the K42 functions from the paper's figures, so profiles and lock reports
// read like the originals.
type kernelSyms struct {
	fairBLockAcquire SymID
	allocRegion      SymID
	gmalloc          SymID
	pageAllocUser    SymID
	pageAllocCS      SymID
	dirLookup        SymID
	dentryHash       SymID
	wordcopy         SymID
	dispatcherIPC    SymID
	pgfltHandler     SymID
	syscallEntry     SymID
	syscallWork      SymID
	dispatcher       SymID
	forkPath         SymID
	idleLoop         SymID
	timerIRQ         SymID
}

// kernelChains caches the static lock-acquisition call chains (Figure 7's
// rightmost column).
type kernelChains struct {
	gmallocAlloc ChainID
	gmallocFree  ChainID
	poolRefill   ChainID
	pageAlloc    ChainID
	pageDealloc  ChainID
	dentry       ChainID
	fileData     ChainID
	runqueue     ChainID
}

// Kernel is the simulated operating system instance. Build one with
// NewKernel (or NewTracedKernel to wire a tracer to its virtual clock),
// then call Run exactly once with a workload.
type Kernel struct {
	cfg    Config
	costs  CostModel
	cpus   []*SimCPU
	tracer *core.Tracer

	symtab *SymTable
	sym    kernelSyms
	chains kernelChains
	locks  []*SimLock

	fs        *FileSystem
	srvAlloc  *Allocator // baseServers user-level allocator (GMalloc chain)
	kernAlloc *Allocator // kernel page allocator

	runqGlobal *SimLock   // Coarse: one run-queue lock
	runqPerCPU []*SimLock // Tuned: per-CPU run-queue locks
	traceLock  *SimLock   // LockedTrace ablation: global trace-buffer lock

	nextPid        uint64
	nextTid        uint64
	scriptsDone    int
	procsCreated   int
	threadsCreated int
	ops            uint64
	traceEvents    uint64
	ran            bool

	probes     [numProbePoints][]probe
	probeSeq   int
	probeFires uint64
	timers     []timer
	barriers   []*Barrier
	blocked    int // threads stranded at an incomplete barrier
	blockedIO  int // threads currently asleep on disk I/O
}

// NewKernel builds a kernel. cfg.Tracer may be nil (tracing compiled out)
// or a tracer whose clock is this kernel's Clock(); use NewTracedKernel to
// get the wiring right in one call.
func NewKernel(cfg Config) (*Kernel, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	k := &Kernel{cfg: cfg, costs: cfg.Costs, tracer: cfg.Tracer,
		nextPid: firstUserPid, nextTid: 0x80000000c12b0000}
	k.cpus = make([]*SimCPU, cfg.CPUs)
	for i := range k.cpus {
		k.cpus[i] = &SimCPU{id: i, nextSample: cfg.SamplePeriod}
	}
	k.symtab = NewSymTable()
	s := k.symtab
	k.sym = kernelSyms{
		fairBLockAcquire: s.Sym("FairBLock::_acquire()"),
		allocRegion:      s.Sym("AllocRegionManager::alloc(unsigned long)"),
		gmalloc:          s.Sym("GMalloc::gMalloc()"),
		pageAllocUser:    s.Sym("PageAllocatorUser::allocPages(unsigned long)"),
		pageAllocCS:      s.Sym("PageAllocatorDefault::allocPages(unsigned long)"),
		dirLookup:        s.Sym("DirLinuxFS::externalLookupDirectory(char*, unsigned long, DirLinuxFS*)"),
		dentryHash:       s.Sym("DentryListHash::lookupPtr(char*, unsigned long, NameHolderInfo*&)"),
		wordcopy:         s.Sym("_wordcopy_fwd_aligned"),
		dispatcherIPC:    s.Sym("DispatcherDefault_IPCalleeEntry"),
		pgfltHandler:     s.Sym("ExceptionLocal::pgfltHandler()"),
		syscallEntry:     s.Sym("SyscallEntry"),
		syscallWork:      s.Sym("LinuxEmul::syscallWork()"),
		dispatcher:       s.Sym("DispatcherDefault::dispatch()"),
		forkPath:         s.Sym("ProcessShared::fork()"),
		idleLoop:         s.Sym("KernelScheduler::idleLoop()"),
		timerIRQ:         s.Sym("ExceptionLocal::timerInterrupt()"),
	}
	k.chains = kernelChains{
		gmallocAlloc: s.Chain("AllocRegionManager::alloc(unsigned long)",
			"PMallocDefault::pMalloc(unsigned long)", "GMalloc::gMalloc()"),
		gmallocFree: s.Chain("AllocRegionManager::free(void*)",
			"PMallocDefault::pFree(void*)", "GMalloc::gFree()"),
		poolRefill: s.Chain("PMallocDefault::refill()", "GMalloc::gMalloc()"),
		pageAlloc: s.Chain("PageAllocatorDefault::allocPages(unsigned long)",
			"PageAllocatorUser::allocPages(unsigned long)", "AllocPool::largeAlloc(unsigned long)"),
		pageDealloc: s.Chain("PageAllocatorDefault::deallocPages(unsigned long)",
			"PageAllocatorUser::deallocPages(unsigned long)", "AllocPool::largeFree(void*)"),
		dentry: s.Chain("DentryListHash::lookupPtr(char*, unsigned long, NameHolderInfo*&)",
			"DirLinuxFS::externalLookupDirectory(char*, unsigned long, DirLinuxFS*)"),
		fileData: s.Chain("FileLinuxFile::locked_readWrite(char*, unsigned long)",
			"LinuxFileSyscalls::rw(int, char*, unsigned long)"),
		runqueue: s.Chain("RunQueue::enqueue(Thread*)", "DispatcherDefault::dispatch()"),
	}
	k.srvAlloc = k.newAllocator("baseServers", k.chains.gmallocAlloc,
		k.chains.gmallocFree, k.chains.poolRefill, k.sym.allocRegion, k.sym.gmalloc)
	k.kernAlloc = k.newAllocator("kernel", k.chains.pageAlloc,
		k.chains.pageDealloc, k.chains.pageAlloc, k.sym.pageAllocUser, k.sym.pageAllocCS)
	k.fs = k.newFileSystem(k.chains.dentry, k.chains.fileData,
		k.sym.dirLookup, k.sym.dentryHash, k.sym.wordcopy)
	if cfg.Tuned {
		k.runqPerCPU = make([]*SimLock, cfg.CPUs)
		for i := range k.runqPerCPU {
			k.runqPerCPU[i] = k.newLock(fmt.Sprintf("sched.runqueue%d", i))
		}
	} else {
		k.runqGlobal = k.newLock("sched.runqueue")
	}
	if cfg.LockedTrace {
		k.traceLock = k.newLock("trace.globalBuffer")
	}
	return k, nil
}

// NewTracedKernel builds a kernel plus a tracer driven by the kernel's
// virtual clock. The tracer's CPU count is forced to the kernel's.
func NewTracedKernel(cfg Config, tcfg core.Config) (*Kernel, *core.Tracer, error) {
	cfg.Tracer = nil
	k, err := NewKernel(cfg)
	if err != nil {
		return nil, nil, err
	}
	tcfg.CPUs = cfg.CPUs
	tcfg.Clock = k.Clock()
	tr, err := core.New(tcfg)
	if err != nil {
		return nil, nil, err
	}
	k.tracer = tr
	return k, tr, nil
}

// Clock returns the kernel's virtual clock, for wiring a tracer manually.
func (k *Kernel) Clock() clock.Source { return simClock{k} }

// runqLock returns the run-queue lock covering cpu.
func (k *Kernel) runqLock(cpu int) *SimLock {
	if k.runqGlobal != nil {
		return k.runqGlobal
	}
	return k.runqPerCPU[cpu]
}

// newProc creates a process (and its main thread) for a script, logging
// the creation events on the creating CPU. creator is the parent pid
// (PidKernel for the initial workload placement).
func (k *Kernel) newProc(c *SimCPU, script *Script, creator uint64, topLevel bool) *Thread {
	pid := k.nextPid
	k.nextPid++
	k.procsCreated++
	p := &Process{
		pid:      pid,
		name:     script.Name,
		topLevel: topLevel,
		faultVA:  pid << 32,
	}
	k.logStr(c, event.MajorUser, EvUserRunULoader, "/"+script.Name, creator, pid)
	k.logStr(c, event.MajorProc, EvProcExec, script.Name, pid)
	return k.newThread(c, p, script.Ops, k.symtab.Sym(script.Name+"_main"), true)
}

// newThread creates a thread of p running ops. Thread IDs mimic K42's
// kernel thread pointers so listings read like the paper's Figure 5.
func (k *Kernel) newThread(c *SimCPU, p *Process, ops []Op, sym SymID, main bool) *Thread {
	k.nextTid += 0x150
	th := &Thread{
		tid:  k.nextTid,
		proc: p,
		ops:  ops,
		sym:  sym,
		main: main,
	}
	p.live++
	k.threadsCreated++
	if !main {
		k.log(c, event.MajorProc, EvProcSpawn, p.pid, th.tid)
	}
	return th
}

// threadExit retires a thread; the last thread out retires the process.
func (k *Kernel) threadExit(c *SimCPU, th *Thread) {
	p := th.proc
	if th.main {
		k.log(c, event.MajorUser, EvUserReturnedMain, p.pid)
	} else {
		k.log(c, event.MajorProc, EvProcThreadExit, p.pid, th.tid)
	}
	p.live--
	if p.live == 0 {
		k.log(c, event.MajorProc, EvProcExit, p.pid)
		if p.topLevel {
			k.scriptsDone++
		}
	}
}

// enqueue places thread p on a run queue: an idle CPU if one exists
// (resuming it), otherwise prefer (the same CPU for a requeue after
// preemption, the least-loaded CPU for a new thread). The enqueuer pays
// the run-queue lock on the enqueuing CPU.
func (k *Kernel) enqueue(c *SimCPU, p *Thread, fresh bool) {
	target := c
	// Prefer an idle CPU: this is the load balancing that drains the
	// "large idle periods" the graphical tool exposed.
	var idleBest *SimCPU
	for _, o := range k.cpus {
		if o.isIdle && (idleBest == nil || o.now < idleBest.now) {
			idleBest = o
		}
	}
	switch {
	case idleBest != nil:
		target = idleBest
	case fresh:
		for _, o := range k.cpus {
			if !o.everRan && o.cur == nil && len(o.queue) == 0 {
				// A CPU that has not started yet is as good as idle.
				target = o
				break
			}
			if load(o) < load(target) {
				target = o
			}
		}
	}
	k.lockedSection(c, k.runqLock(target.id), k.costs.RunqueueCS,
		k.chains.runqueue, k.sym.dispatcher)
	p.readyAt = c.now
	if target != c {
		if !fresh {
			k.log(c, event.MajorSched, EvSchedMigrate, p.pid(), uint64(c.id), uint64(target.id))
		}
		k.resume(target, c.now)
	}
	k.log(c, event.MajorSched, EvSchedEnqueue, p.pid(), uint64(target.id))
	target.queue = append(target.queue, p)
}

func load(c *SimCPU) int {
	n := len(c.queue)
	if c.cur != nil {
		n++
	}
	return n
}

// resume wakes an idle CPU at time at.
func (k *Kernel) resume(c *SimCPU, at uint64) {
	if at < c.now {
		at = c.now
	}
	if c.isIdle {
		d := at - c.idleSince
		c.idle += d
		c.now = at
		c.isIdle = false
		k.log(c, event.MajorSched, EvSchedResume, d)
	} else if at > c.now {
		c.now = at
	}
}

// goIdle marks a CPU as out of work.
func (k *Kernel) goIdle(c *SimCPU) {
	if !c.isIdle {
		k.log(c, event.MajorSched, EvSchedIdle)
		c.isIdle = true
		c.idleSince = c.now
	}
}

// trySteal pulls one runnable process (whose enqueue has already happened
// by c's current time — no causality violations) from the longest queue.
func (k *Kernel) trySteal(c *SimCPU) bool {
	var victim *SimCPU
	for _, o := range k.cpus {
		if o == c || len(o.queue) == 0 {
			continue
		}
		if victim == nil || len(o.queue) > len(victim.queue) {
			victim = o
		}
	}
	if victim == nil {
		return false
	}
	// Steal the most recently enqueued eligible thread.
	for i := len(victim.queue) - 1; i >= 0; i-- {
		p := victim.queue[i]
		if p.readyAt > c.now {
			continue
		}
		victim.queue = append(victim.queue[:i], victim.queue[i+1:]...)
		k.lockedSection(c, k.runqLock(victim.id), k.costs.RunqueueCS,
			k.chains.runqueue, k.sym.dispatcher)
		k.log(c, event.MajorSched, EvSchedMigrate, p.pid(), uint64(victim.id), uint64(c.id))
		p.readyAt = c.now
		c.queue = append(c.queue, p)
		return true
	}
	return false
}

// pickCPU returns the CPU with work whose clock is globally earliest,
// which is what keeps lock requests processed in time order.
func (k *Kernel) pickCPU() *SimCPU {
	var best *SimCPU
	for _, c := range k.cpus {
		if c.cur == nil && len(c.queue) == 0 {
			continue
		}
		if best == nil || c.now < best.now {
			best = c
		}
	}
	return best
}

// step runs one scheduling decision or one operation on CPU c.
func (k *Kernel) step(c *SimCPU) {
	c.everRan = true
	if c.cur == nil {
		// Dispatch the next runnable thread.
		p := c.queue[0]
		c.queue = c.queue[1:]
		if p.readyAt > c.now {
			// Nothing to run until the thread becomes available: the CPU
			// idles visibly (the startup idle the graphical tool exposed).
			k.goIdle(c)
			k.resume(c, p.readyAt)
		}
		k.lockedSection(c, k.runqLock(c.id), k.costs.RunqueueCS,
			k.chains.runqueue, k.sym.dispatcher)
		k.log(c, event.MajorSched, EvSchedSwitch, c.lastPid, p.pid(), p.tid)
		k.fireProbes(c, ProbeDispatch, p.pid())
		c.chargeMisses(missesPerSwitch) // the recooled cache
		k.advance(c, k.costs.ContextSwitch, k.sym.dispatcher)
		c.cur = p
		c.lastPid = p.pid()
		c.quantumEnd = c.now + k.cfg.Quantum
		return
	}
	p := c.cur
	if p.ip >= len(p.ops) {
		// Resumed after blocking on its final op (a trailing barrier).
		k.threadExit(c, p)
		c.cur = nil
		if len(c.queue) == 0 && !k.trySteal(c) {
			k.goIdle(c)
		}
		return
	}
	op := &p.ops[p.ip]
	if (op.Kind == OpRead || op.Kind == OpWrite) && !p.ioWaited {
		if f := k.file(op.Path); k.wouldMiss(f) {
			// Buffer-cache miss: the thread sleeps until the disk
			// completes; the op re-executes as a hit afterwards.
			p.ioWaited = true
			k.blockOnDisk(c, p, f)
			c.cur = nil
			if len(c.queue) == 0 && !k.trySteal(c) {
				k.goIdle(c)
			}
			return
		}
	}
	if op.Kind == OpBarrier && op.Barrier != nil {
		// Barriers interact with scheduling directly: an early arrival
		// blocks (descheduled, resumed by the last arrival's enqueue).
		p.ip++
		k.ops++
		if k.arrive(c, op.Barrier, p) {
			c.cur = nil
			if len(c.queue) == 0 && !k.trySteal(c) {
				k.goIdle(c)
			}
			return
		}
	} else {
		k.execOp(c, p, op)
		p.ioWaited = false
		p.ip++
		k.ops++
	}
	if p.ip >= len(p.ops) {
		k.threadExit(c, p)
		c.cur = nil
	} else if c.now >= c.quantumEnd && len(c.queue) > 0 {
		// Quantum expired with other work pending: preempt.
		c.cur = nil
		k.enqueue(c, p, false)
	}
	if c.cur == nil && len(c.queue) == 0 {
		if !k.trySteal(c) {
			k.goIdle(c)
		}
	}
}

// Run executes the workload to completion and returns the results. A
// Kernel is single-use.
func (k *Kernel) Run(scripts []*Script) (RunResult, error) {
	if k.ran {
		return RunResult{}, fmt.Errorf("ksim: kernel already ran; build a new one")
	}
	k.ran = true
	for i, s := range scripts {
		c := k.cpus[i%len(k.cpus)]
		p := k.newProc(c, s, PidKernel, true)
		p.readyAt = uint64(i) * k.cfg.StaggerStart
		c.queue = append(c.queue, p)
	}
	// Emit symbol and chain definitions so offline tools can resolve IDs.
	k.emitDefs(k.cpus[0])
	for {
		c := k.pickCPU()
		if c == nil {
			// No runnable work: if I/O completions (or other timed events)
			// are pending, the whole machine sleeps until the next one —
			// the all-blocked-on-disk case.
			if len(k.timers) == 0 {
				break
			}
			k.runTimers(k.timers[0].at)
			continue
		}
		k.runTimers(c.now)
		k.step(c)
	}
	k.runTimers(^uint64(0))
	// Re-emit definitions at the end: in flight-recorder mode the start of
	// the trace may have been overwritten.
	k.emitDefs(k.cpus[0])
	var makespan uint64
	for _, c := range k.cpus {
		if c.now > makespan {
			makespan = c.now
		}
	}
	for _, b := range k.barriers {
		k.blocked += len(b.waiting)
	}
	res := RunResult{
		Blocked:     k.blocked,
		MakespanNs:  makespan,
		Scripts:     k.scriptsDone,
		Processes:   k.procsCreated,
		Threads:     k.threadsCreated,
		Ops:         k.ops,
		TraceEvents: k.traceEvents,
		BusyNs:      make([]uint64, len(k.cpus)),
		IdleNs:      make([]uint64, len(k.cpus)),
	}
	for i, c := range k.cpus {
		res.BusyNs[i] = c.busy
		// Idle includes both measured idle gaps and the tail after this
		// CPU finished while others kept running.
		res.IdleNs[i] = c.idle + (makespan - c.now)
	}
	return res, nil
}

// emitDefs logs the symbol table and call-chain table as trace events.
func (k *Kernel) emitDefs(c *SimCPU) {
	if k.tracer == nil || !k.tracer.Enabled(event.MajorSample) {
		return
	}
	syms, chains := k.symtab.snapshot()
	for id, name := range syms {
		k.logStr(c, event.MajorSample, EvSymDef, name, uint64(id))
	}
	for id, frames := range chains {
		k.logStr(c, event.MajorSample, EvChainDef, strings.Join(frames, " < "), uint64(id))
	}
}
