// Shard: one collector inside a federation. A shard is a plain
// live.Collector plus three attachments — an uplink relaying its
// mask-marker blocks to the aggregator, a control hook turning aggregator
// mask frames into the shard's own SetMask broadcast (the second hop of
// the fan-down), and a heartbeat loop announcing the shard's address and
// cumulative overview so the aggregator can keep it on the assignment
// ring and in the federated merge.
package fed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"k42trace/internal/event"
	"k42trace/internal/live"
	"k42trace/internal/relay"
	"k42trace/internal/stream"
)

// ShardOptions configures a Shard.
type ShardOptions struct {
	// Name identifies the shard across restarts (required for heartbeats).
	Name string
	// Advertise is the producer-facing relay address announced to the
	// aggregator — the string producers dial, and the ring member key.
	Advertise string
	// HTTP is the shard's own HTTP surface, announced for operators.
	HTTP string
	// AggAddr is the aggregator's relay address for the block uplink
	// ("" runs the shard standalone: no uplink, no fan-down).
	AggAddr string
	// AggHTTP is the aggregator's HTTP base URL (e.g. "http://host:port")
	// for heartbeats ("" disables membership).
	AggHTTP string
	// HeartbeatEvery is the announce period (default 1s).
	HeartbeatEvery time.Duration
	// Uplink tunes the aggregator uplink. Its OnControl is owned by the
	// shard: it is the fan-down hop.
	Uplink UplinkOptions
	// Live configures the embedded collector. Forward, OnSession and
	// ReclaimSlots are owned by the shard: the first two are the uplink
	// wiring, and slot reclaim is forced on because rebalancing producers
	// reconnect as fresh registrations and would otherwise exhaust
	// CPUSlots.
	Live live.Options
}

// Shard wraps a live.Collector with federation wiring.
type Shard struct {
	opt  ShardOptions
	coll *live.Collector
	up   *Uplink

	client *http.Client

	hbStop chan struct{}
	hbOnce sync.Once
	hbWG   sync.WaitGroup

	beatsOK  atomic.Uint64
	beatsErr atomic.Uint64
	ctrlMask atomic.Uint64 // CtrlSetMask frames fanned down to producers
}

// NewShard builds the shard and starts its heartbeat loop (when AggHTTP
// is set). Serve producers with relay.ListenConns(addr, s.Handler());
// shut down with the listener's CloseNow followed by s.Drain().
func NewShard(opt ShardOptions) (*Shard, error) {
	if opt.AggHTTP != "" && (opt.Name == "" || opt.Advertise == "") {
		return nil, fmt.Errorf("fed: shard heartbeats need Name and Advertise")
	}
	if opt.HeartbeatEvery <= 0 {
		opt.HeartbeatEvery = time.Second
	}
	s := &Shard{
		client: &http.Client{Timeout: 2 * time.Second},
		hbStop: make(chan struct{}),
	}
	if opt.AggAddr != "" {
		uo := opt.Uplink
		uo.OnControl = s.onControl
		s.up = NewUplink(opt.AggAddr, uo)
		opt.Live.Forward = s.forward
		// The session meta names the collector's whole slot space, so the
		// uplink's claim at the aggregator covers every late producer.
		opt.Live.OnSession = s.up.Start
	}
	opt.Live.ReclaimSlots = true
	s.coll = live.NewCollector(opt.Live)
	s.opt = opt
	if opt.AggHTTP != "" {
		s.hbWG.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
}

// Collector exposes the embedded collector.
func (s *Shard) Collector() *live.Collector { return s.coll }

// Handler returns the producer-facing relay handler.
func (s *Shard) Handler() relay.ConnHandler { return s.coll.Handler() }

// forward is the collector's Forward seam: relay upward the accepted
// blocks that carry a CtrlMaskChange marker, so the aggregator sees every
// mask epoch from every producer while the data plane stays on the shard.
func (s *Shard) forward(h stream.BlockHeader, words []uint64, evs []event.Event) {
	for i := range evs {
		if evs[i].Major() == event.MajorControl && evs[i].Minor() == event.CtrlMaskChange {
			s.up.Feed(h, words)
			return
		}
	}
}

// onControl is the fan-down hop: a CtrlSetMask frame arriving on the
// uplink (the aggregator's broadcast, or its pending replay when this
// shard's uplink connects) becomes this collector's own broadcast, which
// sends to every connected producer and arms the pending replay for
// producers that connect — or rehash over — later.
func (s *Shard) onControl(f relay.ControlFrame) {
	if f.Type != relay.CtrlSetMask {
		return
	}
	s.ctrlMask.Add(1)
	s.coll.SetMask(f.Mask, 0)
}

func (s *Shard) heartbeatLoop() {
	defer s.hbWG.Done()
	s.heartbeat(false)
	t := time.NewTicker(s.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.heartbeat(false)
		case <-s.hbStop:
			return
		}
	}
}

func (s *Shard) heartbeat(leaving bool) error {
	snap := s.coll.Snapshot()
	hb := Heartbeat{
		Name:     s.opt.Name,
		Addr:     s.opt.Advertise,
		HTTP:     s.opt.HTTP,
		Leaving:  leaving,
		Overview: snap.Overview,
	}
	for _, p := range snap.Producers {
		hb.Producers++
		hb.Blocks += p.Blocks
		hb.Events += p.Events
	}
	body, err := json.Marshal(hb)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.opt.AggHTTP+"/fed/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		s.beatsErr.Add(1)
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.beatsErr.Add(1)
		return fmt.Errorf("fed: heartbeat: %s", resp.Status)
	}
	s.beatsOK.Add(1)
	return nil
}

// Drain finishes the shard's session: stop heartbeating, drain the
// collector (exact spill), flush the uplink queue, and send the final
// Leaving heartbeat whose overview is the shard's exact total — the
// value the federated merge keeps counting after this shard is gone.
// Call after the producer-facing relay server has been closed.
func (s *Shard) Drain() error {
	s.hbOnce.Do(func() { close(s.hbStop) })
	s.hbWG.Wait()
	err := s.coll.Drain()
	if s.up != nil {
		s.up.Close()
	}
	if s.opt.AggHTTP != "" {
		s.heartbeat(true)
	}
	return err
}

// kill is the SIGKILL analogue for tests: stop heartbeating WITHOUT the
// final Leaving beat, drain the collector, and close the uplink. The
// aggregator only learns of the death when the heartbeat TTL expires,
// exactly as with a real killed process — the shard leaves the ring as
// StateExpired and its last-reported overview keeps counting as a lower
// bound.
func (s *Shard) kill() error {
	s.hbOnce.Do(func() { close(s.hbStop) })
	s.hbWG.Wait()
	err := s.coll.Drain()
	if s.up != nil {
		s.up.Close()
	}
	return err
}

// ShardStats is the GET /fed/shard document.
type ShardStats struct {
	Name           string       `json:"name"`
	Advertise      string       `json:"advertise"`
	HeartbeatsOK   uint64       `json:"heartbeats_ok"`
	HeartbeatsErr  uint64       `json:"heartbeats_err"`
	CtrlMaskFrames uint64       `json:"ctrl_mask_frames"`
	Uplink         *UplinkStats `json:"uplink,omitempty"`
}

// Stats snapshots the shard's federation counters.
func (s *Shard) Stats() ShardStats {
	st := ShardStats{
		Name:           s.opt.Name,
		Advertise:      s.opt.Advertise,
		HeartbeatsOK:   s.beatsOK.Load(),
		HeartbeatsErr:  s.beatsErr.Load(),
		CtrlMaskFrames: s.ctrlMask.Load(),
	}
	if s.up != nil {
		us := s.up.Stats()
		st.Uplink = &us
	}
	return st
}

// Mux returns the shard's HTTP surface: the embedded collector's
// endpoints plus GET /fed/shard with the federation counters.
func (s *Shard) Mux() *http.ServeMux {
	mux := s.coll.Mux()
	mux.HandleFunc("/fed/shard", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	return mux
}
