package ktrace_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	ktrace "k42trace"
)

// The basic lifecycle: create a tracer, enable it, log from a per-CPU
// handle, and read the flight recorder back.
func Example() {
	tr := ktrace.MustNew(ktrace.Config{
		CPUs:     2,
		BufWords: 256,
		NumBufs:  4,
		Clock:    ktrace.NewManualClock(1), // deterministic for the example
	})
	tr.EnableAll()

	cpu := tr.CPU(0)
	cpu.Log2(ktrace.MajorUser, 100, 7, 42)

	events, info := tr.Dump(0)
	fmt.Println("events:", len(events), "garbled:", info.Stats.Garbled())
	last := events[len(events)-1]
	fmt.Println("payload:", last.Data[0], last.Data[1])
	// Output:
	// events: 2 garbled: false
	// payload: 7 42
}

// Self-describing events: register a format once; every generic tool can
// render the event afterwards.
func Example_selfDescribing() {
	reg := ktrace.NewRegistry()
	reg.MustRegister(ktrace.MajorUser, 101, "APP_REQUEST", "64 str",
		"request %0[%lld] for %1[%s]")

	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 256, NumBufs: 4,
		Clock: ktrace.NewManualClock(1)})
	tr.EnableAll()

	toks, _ := ktrace.ParseTokens("64 str")
	words, _ := ktrace.Pack(toks, []ktrace.Value{
		{Int: 9}, {Str: "/etc/motd", IsStr: true}})
	tr.CPU(0).LogWords(ktrace.MajorUser, 101, words)

	events, _ := tr.Dump(0)
	last := &events[len(events)-1]
	name, text := ktrace.Describe(reg, last)
	fmt.Println(name+":", text)
	vals, _ := ktrace.Unpack(toks, last.Data)
	fmt.Println(vals[0].Int, vals[1].Str)
	// Output:
	// APP_REQUEST: request 9 for /etc/motd
	// 9 /etc/motd
}

// The trace mask: tracing stays compiled in, costs ~2ns when disabled, and
// is enabled per major class at runtime.
func Example_mask() {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 256, NumBufs: 4})
	cpu := tr.CPU(0)

	fmt.Println("disabled logged:", cpu.Log1(ktrace.MajorIO, 1, 1))
	tr.Enable(ktrace.MajorIO)
	fmt.Println("enabled logged:", cpu.Log1(ktrace.MajorIO, 1, 1))
	fmt.Println("other major still off:", cpu.Log1(ktrace.MajorMem, 1, 1))
	// Output:
	// disabled logged: false
	// enabled logged: true
	// other major still off: false
}

// Streaming to a file and analyzing it: the Figure 5 listing.
func Example_streamToFile() {
	ktrace.DefaultRegistry().MustRegister(ktrace.MajorTest, 7,
		"APP_TICK", "64", "tick %0[%lld]")
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 64, NumBufs: 4,
		Mode: ktrace.Stream, Clock: ktrace.NewManualClock(1000)})
	tr.EnableAll()
	path := "example_stream.ktr"
	wait, _ := ktrace.WriteTraceFile(tr, path)
	defer os.Remove(path)

	for i := 0; i < 3; i++ {
		tr.CPU(0).Log1(ktrace.MajorTest, 7, uint64(i))
	}
	tr.Stop()
	wait()

	trace, _, _, _ := ktrace.OpenTraceFile(path)
	trace.List(os.Stdout, ktrace.ListOptions{
		Majors: []ktrace.Major{ktrace.MajorTest}})
	// Output:
	// 0.0000010 APP_TICK                     tick 0
	// 0.0000020 APP_TICK                     tick 1
	// 0.0000030 APP_TICK                     tick 2
}

// Mask specs: the form the daemons' -mask flags and /live/mask take, and
// the two renderings of a mask.
func Example_maskSpec() {
	mask, err := ktrace.ParseMask("sched,lock")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(ktrace.MaskString(mask))
	fmt.Println(ktrace.MaskMajors(mask))
	// Output:
	// 0x19
	// [CTRL SCHED LOCK]
}

// Capture drains a stream-mode tracer into any io.Writer until the tracer
// stops; the bytes are a trace file that NewReader opens for random
// access, one block per sealed buffer.
func Example_capture() {
	tr, err := ktrace.New(ktrace.Config{CPUs: 2, BufWords: 64, NumBufs: 4,
		Mode: ktrace.Stream, Clock: ktrace.NewSyncClock()})
	if err != nil {
		fmt.Println(err)
		return
	}
	tr.EnableAll()
	go func() {
		for i := 0; i < 100; i++ {
			tr.CPU(i%2).Log1(ktrace.MajorUser, 1, uint64(i))
		}
		tr.Stop()
	}()
	var file bytes.Buffer
	if _, err := ktrace.Capture(tr, &file); err != nil {
		fmt.Println(err)
		return
	}

	rd, err := ktrace.NewReader(bytes.NewReader(file.Bytes()), int64(file.Len()))
	if err != nil {
		fmt.Println(err)
		return
	}
	user := 0
	for i := 0; i < rd.NumBlocks(); i++ {
		hdr, words, err := rd.Block(i)
		if err != nil {
			fmt.Println(err)
			return
		}
		evs, _ := ktrace.DecodeBuffer(int(hdr.CPU), words)
		for _, e := range evs {
			if e.Major() == ktrace.MajorUser {
				user++
			}
		}
	}
	fmt.Println("user events:", user)
	// Output:
	// user events: 100
}

// Per-user trace views: a crash dump's buffer, redacted to the MEM class,
// keeps its length and its MEM events and loses everything else.
func Example_redact() {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 128, NumBufs: 2,
		Clock: ktrace.NewManualClock(1)})
	tr.EnableAll()
	tr.CPU(0).Log1(ktrace.MajorMem, 1, 0x11)
	tr.CPU(0).Log1(ktrace.MajorUser, 2, 0x22)
	var dump bytes.Buffer
	if err := ktrace.WriteCrashDump(tr, &dump); err != nil {
		fmt.Println(err)
		return
	}
	rd, err := ktrace.NewReader(bytes.NewReader(dump.Bytes()), int64(dump.Len()))
	if err != nil {
		fmt.Println(err)
		return
	}
	_, words, err := rd.Block(0)
	if err != nil {
		fmt.Println(err)
		return
	}
	red := ktrace.Redact(words, ktrace.VisibleMask(ktrace.MajorMem))
	evs, _ := ktrace.DecodeBuffer(0, red)
	for _, e := range evs {
		if e.Major() != ktrace.MajorControl {
			fmt.Println(e.Major(), e.Data)
		}
	}
	fmt.Println("same length:", len(red) == len(words))
	// Output:
	// MEM [17]
	// same length: true
}

// A trace cut off mid-block fails the strict reader; Salvage reads what
// survives, and SalvageTo rewrites it as a clean trace file.
func Example_salvage() {
	tr := ktrace.MustNew(ktrace.Config{CPUs: 1, BufWords: 64, NumBufs: 4,
		Mode: ktrace.Stream, Clock: ktrace.NewManualClock(1)})
	tr.EnableAll()
	var file bytes.Buffer
	wait := ktrace.CaptureAsync(tr, &file)
	for i := 0; i < 100; i++ {
		tr.CPU(0).Log1(ktrace.MajorUser, 1, uint64(i))
	}
	tr.Stop()
	if _, err := wait(); err != nil {
		fmt.Println(err)
		return
	}
	cut := file.Bytes()[:file.Len()-100]

	_, err := ktrace.NewReader(bytes.NewReader(cut), int64(len(cut)))
	fmt.Println("strict read fails:", err != nil)
	_, rep, err := ktrace.Salvage(bytes.NewReader(cut), int64(len(cut)), 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("torn tail:", rep.TailBytes > 0, "clean:", rep.Clean())
	var clean bytes.Buffer
	if _, err := ktrace.SalvageTo(bytes.NewReader(cut), int64(len(cut)), &clean, 1); err != nil {
		fmt.Println(err)
		return
	}
	rd, err := ktrace.NewReader(bytes.NewReader(clean.Bytes()), int64(clean.Len()))
	fmt.Println("rewritten file reads:", err == nil && rd.NumBlocks() == rep.BlocksGood)
	// Output:
	// strict read fails: true
	// torn tail: true clean: false
	// rewritten file reads: true
}

// Cross-process tracing: the daemon side creates a shared segment (most
// deployments run cmd/ktraced for that), and any process attaches to it
// and logs through its CPU handles with no system calls. The agent is a
// Source like a stream-mode tracer, so Capture drains it into a trace file.
func Example_sharedMemory() {
	dir, err := os.MkdirTemp("", "ktrace-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trace.seg")
	agent, err := ktrace.CreateShmSegment(path, ktrace.ShmGeometry{CPUs: 2, BufWords: 256, NumBufs: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer agent.Close()
	agent.SetMask(ktrace.VisibleMask(ktrace.MajorUser))
	var file bytes.Buffer
	wait := ktrace.CaptureAsync(agent, &file)

	client, err := ktrace.Attach(path)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("logged:", client.CPU(0).Log1(ktrace.MajorUser, 1, 42))
	info, err := ktrace.InspectShmSegment(path)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("clients attached:", len(info.Clients))
	client.Detach()
	agent.Stop()
	if _, err := wait(); err != nil {
		fmt.Println(err)
		return
	}

	rd, err := ktrace.NewReader(bytes.NewReader(file.Bytes()), int64(file.Len()))
	if err != nil {
		fmt.Println(err)
		return
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, e := range evs {
		if e.Major() == ktrace.MajorUser {
			fmt.Println("read back: minor", e.Minor(), "payload", e.Data)
		}
	}
	// Output:
	// logged: true
	// clients attached: 1
	// read back: minor 1 payload [42]
}
