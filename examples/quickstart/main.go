// Quickstart: instrument a concurrent Go application with the ktrace
// library — define self-describing events, log them from several workers
// through per-CPU handles without locks, stream the trace to a file, and
// run the analysis tools over it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"sync"

	ktrace "k42trace"
)

// Application event minors under MajorUser.
const (
	evJobStart  = 100
	evJobFinish = 101
	evCacheMiss = 102
)

func main() {
	// Register self-describing formats so generic tools can render our
	// events (the eventParse structure of the paper, §4.4).
	reg := ktrace.DefaultRegistry()
	reg.MustRegister(ktrace.MajorUser, evJobStart, "APP_JOB_START", "64 64",
		"worker %0[%lld] starts job %1[%lld]")
	reg.MustRegister(ktrace.MajorUser, evJobFinish, "APP_JOB_FINISH", "64 64 64",
		"worker %0[%lld] finished job %1[%lld] result %2[%llx]")
	reg.MustRegister(ktrace.MajorUser, evCacheMiss, "APP_CACHE_MISS", "64",
		"cache miss on key %0[%lld]")

	// A stream-mode tracer with one buffer set per worker ("CPU").
	const workers = 4
	tr := ktrace.MustNew(ktrace.Config{
		CPUs:     workers,
		BufWords: 4096, // 32 KiB alignment boundary
		NumBufs:  4,
		Mode:     ktrace.Stream,
	})
	tr.EnableAll() // tracing is compiled in but off until enabled

	// Drain sealed buffers to disk while the application runs.
	wait, err := ktrace.WriteTraceFile(tr, "quickstart.ktr")
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cpu := tr.CPU(w) // lockless per-processor handle
			for job := 0; job < 2000; job++ {
				cpu.Log2(ktrace.MajorUser, evJobStart, uint64(w), uint64(job))
				if job%7 == 0 {
					cpu.Log1(ktrace.MajorUser, evCacheMiss, uint64(job))
				}
				cpu.Log3(ktrace.MajorUser, evJobFinish,
					uint64(w), uint64(job), uint64(job*job))
			}
		}(w)
	}
	wg.Wait()
	tr.Stop()
	if _, err := wait(); err != nil {
		log.Fatal(err)
	}
	st := tr.Stats()
	fmt.Printf("logged %d events (%d words), %d buffer seals, %d CAS retries\n",
		st.Events, st.Words, st.Seals, st.Retries)

	// Read the trace back and list a window of it, Figure 5 style.
	trace, meta, dst, err := ktrace.OpenTraceFile("quickstart.ktr")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace file: %d CPUs, %d-word buffers, garbled=%v\n",
		meta.CPUs, meta.BufWords, dst.Garbled())
	fmt.Println("\nfirst 8 events:")
	trace.List(os.Stdout, ktrace.ListOptions{Limit: 8})
	fmt.Printf("\n(%d events total; try ktrace list and ktrace kmon on quickstart.ktr)\n",
		len(trace.Events))
}
