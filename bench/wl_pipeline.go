package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"k42trace/internal/faultinject"
	"k42trace/internal/live"
	"k42trace/internal/relay"
	"k42trace/internal/shm"
	"k42trace/internal/store"
	"k42trace/internal/stream"
)

// pipelineIngest is the only workload where layers overlap in time. The
// primary op carries one burst from the first logged event to a formatted
// query answer: an shm client logs the synthetic sched/syscall/lock
// pattern, the agent's buffers go through relay.SendThrough over loopback
// into a live.Collector that spills to a file, and the drained spill is
// ingested into a fresh store tenant and queried. The secondary op is the
// store write path alone, on the bytes of one such spill, so a collector
// or wire gain moves the primary and leaves the secondary flat.
//
// The segment uses the deterministic tick clock: every round then logs the
// same words, every spill has the same bytes, and the formatted answer has
// one CRC for the whole run.
type pipelineIngest struct {
	pid    uint64
	bursts int // rounds of the synthetic pattern; 3.4 events each

	n      int    // prep counter, names the round's directory
	oracle uint32 // CRC of the formatted overview
	spill  []byte // one round's spill, the secondary op's input
	span   uint64 // SegmentSpan for the secondary op: time range / 8
	stored uint64 // events one burst becomes in the store (anchors included)

	cur  pipeRound
	cur2 storeRound

	// traced-run accumulators
	events, wireBytes, fed, disconnects int64
	diskBytes, diskEvents, segments     int64
	uploads, merged                     int64
	liveMBps, indexMs                   []float64
}

// pipeRound is the state of one primary op.
type pipeRound struct {
	dir   string
	ag    *shm.Agent
	cl    *shm.Client
	coll  *live.Collector
	spill *os.File
	st    *store.Store
	wire  *countingWriter
	sent  chan error

	logged int
	ing    *store.IngestResult
	res    *store.Result
	out    crcWriter
}

// storeRound is the state of one secondary op.
type storeRound struct {
	dir string
	st  *store.Store
	ing *store.IngestResult
	cmp *store.CompactResult
}

const pipeTenant = "burst"

func (w *pipelineIngest) setup(e *env) error {
	w.pid = 100 + uint64(e.seed)%900
	w.bursts = 60_000
	if e.small {
		w.bursts = 4_000
	}
	// The oracle round: its spill is the secondary op's input, its CRC the
	// answer every later round must give.
	p, _ := w.ops()
	w.oracle, w.spill = 0, nil
	if err := p.prep(e); err != nil {
		return err
	}
	if err := p.run(e); err != nil {
		return err
	}
	// The agent hands sealed buffers over in slot order, not sequence
	// order, so how many blocks of a spill are out of sequence depends on
	// timing. The secondary op gets the re-sequenced bytes: the same input
	// in every round and every run.
	raw, err := os.ReadFile(w.cur.spill.Name())
	if err != nil {
		return err
	}
	var clean bytes.Buffer
	if _, err := stream.SalvageTo(bytes.NewReader(raw), int64(len(raw)), &clean, 0); err != nil {
		return err
	}
	ts := w.cur.st.Tenants()
	if len(ts) != 1 || ts[0].MaxTime <= ts[0].MinTime {
		return fmt.Errorf("oracle round left %d tenants", len(ts))
	}
	w.span = (ts[0].MaxTime-ts[0].MinTime)/8 + 1
	w.stored = ts[0].Events
	w.oracle, w.spill = w.cur.out.crc, clean.Bytes()
	return p.check(e)
}

func (w *pipelineIngest) teardown() {}

// burstEvents is what SyntheticWorkload logs in w.bursts rounds: a switch
// and a syscall pair every round, a lock pair every fifth.
func (w *pipelineIngest) burstEvents() int { return w.bursts*3 + w.bursts/5*2 }

func (w *pipelineIngest) roundDir(e *env, kind string) (string, error) {
	w.n++
	dir := filepath.Join(e.dir, kind+strconv.Itoa(w.n))
	return dir, os.MkdirAll(dir, 0o755)
}

func (w *pipelineIngest) ops() (op, op) {
	primary := op{
		prep: func(e *env) error {
			dir, err := w.roundDir(e, "pipe")
			if err != nil {
				return err
			}
			r := pipeRound{dir: dir, wire: &countingWriter{}, sent: make(chan error, 1)}
			if r.ag, err = shm.Create(filepath.Join(dir, "burst.seg"), shm.Geometry{
				CPUs: 1, BufWords: hotBufWords, NumBufs: hotNumBufs, MaxClients: 4,
				DeterministicClock: true}); err != nil {
				return err
			}
			if r.cl, err = shm.Attach(r.ag.Path()); err != nil {
				return err
			}
			if r.spill, err = os.Create(filepath.Join(dir, "spill.ktr")); err != nil {
				return err
			}
			r.coll = live.NewCollector(live.Options{Window: 100 * time.Millisecond, Spill: r.spill})
			if r.st, err = store.Open(store.Options{Root: filepath.Join(dir, "store")}); err != nil {
				return err
			}
			w.cur = r
			return nil
		},
		run: func(e *env) error {
			r := &w.cur
			root := e.tr.current()
			handler := r.coll.Handler()
			accepted := make(chan struct{}) // closed once: there is one connection
			srv, err := relay.ListenConns("127.0.0.1:0", func(c relay.Conn) error {
				close(accepted)
				sp := e.tr.beginAsync("live.serve", root)
				defer sp.end()
				return handler(c)
			})
			if err != nil {
				return err
			}
			go func() {
				sp := e.tr.beginAsync("relay.send", root)
				_, err := relay.SendThrough(r.ag, srv.Addr(), func(conn io.Writer) io.Writer {
					return io.MultiWriter(conn, r.wire)
				})
				sp.end()
				r.sent <- err
			}()

			sp := e.tr.begin("shm.log")
			r.logged = faultinject.SyntheticWorkload(r.cl.CPU(0), w.pid, w.bursts)
			sp.end()
			sp = e.tr.begin("shm.stop")
			err = r.cl.Detach()
			r.ag.Stop()
			sp.end()
			if err != nil {
				return err
			}
			sp = e.tr.begin("relay.send_tail")
			err = <-r.sent
			sp.end()
			if err != nil {
				return err
			}
			// A small burst fits the socket buffers, so the sender can be done
			// before the server has accepted it; closing the listener then
			// would lose the burst.
			sp = e.tr.begin("live.drain")
			<-accepted
			err = srv.Close()
			if derr := r.coll.Drain(); err == nil {
				err = derr
			}
			if cerr := r.spill.Close(); err == nil {
				err = cerr
			}
			sp.end()
			if err != nil {
				return err
			}
			sp = e.tr.begin("store.ingest")
			r.ing, err = r.st.IngestFile(pipeTenant, r.spill.Name())
			sp.end()
			if err != nil {
				return err
			}
			sp = e.tr.begin("store.query")
			p, err := store.ParseParams(queryValues(pipeTenant, "agg", "overview"))
			if err == nil {
				r.res, err = r.st.Query(p)
			}
			sp.end()
			if err != nil {
				return err
			}
			sp = e.tr.begin("store.format")
			r.out = crcWriter{}
			err = r.res.Format(&r.out, 0)
			sp.end()
			return err
		},
		check: func(e *env) error {
			r := &w.cur
			defer func() {
				r.st.Close()
				r.ag.Close()
				os.RemoveAll(r.dir)
			}()
			if want := w.burstEvents(); r.logged != want {
				return fmt.Errorf("logged %d events, want %d", r.logged, want)
			}
			// Out-of-sequence blocks are the agent's slot-order hand-over and
			// are expected; anything else the salvager had to repair is a miss.
			if rep := *r.ing.Salvage; rep.MetaRecovered || rep.TailBytes != 0 || rep.BlocksSkipped != 0 ||
				rep.DupBlocks != 0 || rep.LostBlocks != 0 || rep.Stats.SkippedWords != 0 {
				return fmt.Errorf("spill needed repair: %v", r.ing.Salvage)
			}
			if r.ing.Events != uint64(len(r.res.Events)) || (w.spill != nil && r.ing.Events != w.stored) {
				return fmt.Errorf("ingested %d events, query returned %d, oracle round stored %d",
					r.ing.Events, len(r.res.Events), w.stored)
			}
			p, err := store.ParseParams(queryValues(pipeTenant, "major", "sched"))
			if err != nil {
				return err
			}
			sched, err := r.st.Query(p)
			if err != nil {
				return err
			}
			if len(sched.Events) != w.bursts {
				return fmt.Errorf("%d sched events queryable, want %d", len(sched.Events), w.bursts)
			}
			snap := r.coll.Snapshot()
			var gone uint64
			for _, n := range snap.Disconnects {
				gone += n
			}
			if gone != 0 {
				return fmt.Errorf("collector disconnects: %v", snap.Disconnects)
			}
			if w.spill != nil && r.out.crc != w.oracle {
				return fmt.Errorf("formatted overview CRC %08x, oracle round gave %08x", r.out.crc, w.oracle)
			}
			if e.tr.enabled() {
				w.events += int64(r.logged)
				w.wireBytes += r.wire.n
				w.fed += int64(snap.Stats.Events)
				w.disconnects += int64(gone)
				w.uploads++
				w.segments += int64(len(r.ing.Segments))
			}
			return nil
		},
	}
	secondary := op{
		prep: func(e *env) error {
			dir, err := w.roundDir(e, "direct")
			if err != nil {
				return err
			}
			st, err := store.Open(store.Options{Root: dir, SegmentSpan: w.span})
			w.cur2 = storeRound{dir: dir, st: st}
			return err
		},
		run: func(e *env) error {
			r := &w.cur2
			var err error
			sp := e.tr.begin("store.ingest_direct")
			r.ing, err = r.st.Ingest(pipeTenant, bytes.NewReader(w.spill), int64(len(w.spill)))
			sp.end()
			if err != nil {
				return err
			}
			sp = e.tr.begin("store.compact")
			r.cmp, err = r.st.Compact(pipeTenant)
			sp.end()
			return err
		},
		check: func(e *env) error {
			r := &w.cur2
			defer func() {
				r.st.Close()
				os.RemoveAll(r.dir)
			}()
			ts := r.st.Tenants()
			if r.ing.Salvaged || r.ing.Events != w.stored || len(ts) != 1 || ts[0].Events != w.stored {
				return fmt.Errorf("direct ingest stored %d events (salvaged %v), want %d",
					r.ing.Events, r.ing.Salvaged, w.stored)
			}
			if len(r.ing.Segments) < 2 || r.cmp.Runs == 0 {
				return fmt.Errorf("direct ingest made %d segments, compaction merged %d in %d runs",
					len(r.ing.Segments), r.cmp.In, r.cmp.Runs)
			}
			if e.tr.enabled() {
				w.merged += int64(r.cmp.In)
				w.diskEvents += int64(ts[0].Events)
				filepath.WalkDir(r.dir, func(_ string, d fs.DirEntry, err error) error {
					if err == nil && d.Type().IsRegular() {
						if fi, err := d.Info(); err == nil {
							w.diskBytes += fi.Size()
						}
					}
					return nil
				})
			}
			return nil
		},
	}
	return primary, secondary
}

// probes isolates two costs the overlapping spans cannot: the collector
// fed from memory with no socket in the way, and the index build the
// store's ingest performs on every segment.
func (w *pipelineIngest) probes(e *env) error {
	coll := live.NewCollector(live.Options{Window: 100 * time.Millisecond, Spill: &countingWriter{}})
	start := time.Now()
	bs, err := stream.NewBlockStream(bytes.NewReader(w.spill))
	if err != nil {
		return err
	}
	if err := coll.Handler()(relay.Conn{ID: 1, Remote: &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)}, Stream: bs}); err != nil {
		return err
	}
	if err := coll.Drain(); err != nil {
		return err
	}
	w.liveMBps = append(w.liveMBps, float64(len(w.spill))/(1<<20)/time.Since(start).Seconds())

	rd, err := stream.NewReader(bytes.NewReader(w.spill), int64(len(w.spill)))
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := rd.BuildFullIndex(0, nil); err != nil {
		return err
	}
	w.indexMs = append(w.indexMs, float64(time.Since(start))/1e6)
	return nil
}

func (w *pipelineIngest) layers(e *env, spans []span, m metrics) {
	ms := func(name string) float64 { return roundMedian(spans, name, spanMs) }
	send := ms("relay.send")
	m.set("shm.log_ns_per_event", ms("shm.log")*1e6/float64(w.burstEvents()))
	m.set("relay.send_ms", send)
	if w.uploads > 0 && send > 0 {
		m.set("relay.send_mb_per_s", float64(w.wireBytes)/float64(w.uploads)/(1<<20)/(send/1e3))
		m.set("relay.wire_bytes_per_event", float64(w.wireBytes)/float64(w.events))
		m.set("live.events_fed", float64(w.fed)/float64(w.uploads))
		m.set("store.segments_per_upload", float64(w.segments)/float64(w.uploads))
		m.set("store.compact_segments_merged", float64(w.merged)/float64(w.uploads))
	}
	m.set("live.ingest_mb_per_s", median(w.liveMBps))
	m.set("live.drain_ms", ms("live.drain"))
	m.set("live.disconnects", float64(w.disconnects))
	// accept → drained: from the collector's handler being entered to Drain
	// returning, round by round. A small burst fits the socket buffers, so
	// the drain span may begin, and be recorded, before the accept.
	serve := map[int]int64{}
	for i := range spans {
		if spans[i].Name == "live.serve" {
			serve[spans[i].Round] = spans[i].Start
		}
	}
	var spansMs []float64
	for i := range spans {
		if t0, ok := serve[spans[i].Round]; ok && spans[i].Name == "live.drain" {
			spansMs = append(spansMs, float64(spans[i].End-t0)/1e6)
		}
	}
	m.set("live.accept_to_drained_ms", median(spansMs))
	m.set("store.ingest_ms", ms("store.ingest"))
	m.set("store.ingest_direct_ms", ms("store.ingest_direct"))
	m.set("store.compact_ms", ms("store.compact"))
	if w.diskEvents > 0 {
		m.set("store.disk_bytes_per_event", float64(w.diskBytes)/float64(w.diskEvents))
	}
	m.set("stream.index_build_ms", median(w.indexMs))
}
