// Network streaming example: a traced system relays its buffers to a
// collector over TCP as they seal, and the collector analyzes them live —
// "this event log may be examined while the system is running, written
// out to disk, or streamed over the network." The collector also saves
// the stream as a trace file and runs the timeline tool on it afterwards.
//
//	go run ./examples/netstream
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"

	ktrace "k42trace"
	"k42trace/internal/ksim"
	"k42trace/internal/sdet"
	"k42trace/internal/stream"
)

func main() {
	// Collector: receive buffers, count events live, and tee the stream
	// into an in-memory trace file.
	var file bytes.Buffer
	liveEvents := 0
	liveBuffers := 0
	collectorDone := make(chan struct{})
	handler := func(remote net.Addr, bs *stream.BlockStream) error {
		defer close(collectorDone)
		wr, err := stream.NewWriter(&file, bs.Meta())
		if err != nil {
			return err
		}
		for {
			h, words, err := bs.Next(nil)
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			// Live analysis: decode the buffer as it arrives.
			evs, _ := ktrace.DecodeBuffer(h.CPU, words)
			liveEvents += len(evs)
			liveBuffers++
			if liveBuffers%8 == 0 {
				fmt.Printf("  [collector] %d buffers, %d events so far (latest from cpu %d, seq %d)\n",
					liveBuffers, liveEvents, h.CPU, h.Seq)
			}
			if err := wr.WriteBlock(h, words); err != nil {
				return err
			}
		}
	}
	srv, err := ktrace.RelayListen("127.0.0.1:0", handler)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collector listening on %s\n", srv.Addr())

	// Traced system: run the SDET workload with a stream-mode tracer and
	// relay every sealed buffer to the collector.
	k, tr, err := ksim.NewTracedKernel(
		ksim.Config{CPUs: 4, Tuned: false, SamplePeriod: 100_000},
		ktrace.Config{BufWords: 4096, NumBufs: 8, Mode: ktrace.Stream})
	if err != nil {
		log.Fatal(err)
	}
	tr.EnableAll()
	sendDone := make(chan error, 1)
	go func() {
		_, err := ktrace.RelaySend(tr, srv.Addr())
		sendDone <- err
	}()
	res, err := k.Run(sdet.Workload(4, sdet.Params{ScriptsPerCPU: 3, CommandsPerScript: 4, Seed: 7}))
	if err != nil {
		log.Fatal(err)
	}
	tr.Stop()
	if err := <-sendDone; err != nil {
		log.Fatal(err)
	}
	<-collectorDone
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sender done: %d events over %d virtual ms\n",
		res.TraceEvents, res.MakespanNs/1e6)
	fmt.Printf("collector received %d buffers, %d events\n\n", liveBuffers, liveEvents)

	// The collected bytes are a valid trace file: run the timeline on it.
	rd, err := stream.NewReader(bytes.NewReader(file.Bytes()), int64(file.Len()))
	if err != nil {
		log.Fatal(err)
	}
	evs, _, err := rd.ReadAll()
	if err != nil {
		log.Fatal(err)
	}
	trace := ktrace.BuildTrace(evs, rd.Meta().ClockHz, ktrace.DefaultRegistry())
	tl := trace.Timeline(72)
	fmt.Print(tl.ASCII())
}
