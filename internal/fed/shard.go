// Shard: one collector inside a federation. A shard is a plain
// live.Collector plus three attachments — an uplink relaying its
// accepted blocks to the aggregator, a control hook turning aggregator
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

// ForwardMode selects which accepted blocks a shard relays upward.
type ForwardMode string

const (
	// ForwardAll mirrors every accepted block to the aggregator. The
	// aggregator's spill then holds the whole federation's trace, but the
	// aggregate ingest rate is capped by the aggregator's own ceiling.
	ForwardAll ForwardMode = "all"
	// ForwardCtrl relays only blocks carrying CtrlMaskChange markers, so
	// the aggregator still observes every mask epoch from every producer
	// (the fan-down acknowledgment path) while the data plane scales with
	// the number of shards. The federated overview is unaffected — it
	// merges heartbeat overviews, not mirrored blocks.
	ForwardCtrl ForwardMode = "ctrl"
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
	// Forward selects the uplink relay policy (default ForwardAll).
	Forward ForwardMode
	// Uplink tunes the aggregator uplink. Its OnControl is chained after
	// the shard's own mask fan-down handler.
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
	if opt.Forward == "" {
		opt.Forward = ForwardAll
	}
	if opt.Forward != ForwardAll && opt.Forward != ForwardCtrl {
		return nil, fmt.Errorf("fed: unknown forward mode %q", opt.Forward)
	}
	// Mirror the collector's CPUSlots defaulting here: the uplink claims
	// the shard's whole slot space at the aggregator, so the claim must
	// name the same number the collector will actually use.
	if opt.Live.CPUSlots <= 0 {
		opt.Live.CPUSlots = 256
	}
	if opt.Live.CPUSlots > 1<<16 {
		opt.Live.CPUSlots = 1 << 16
	}
	s := &Shard{
		opt:    opt,
		client: &http.Client{Timeout: 2 * time.Second},
		hbStop: make(chan struct{}),
	}
	if opt.AggAddr != "" {
		uo := opt.Uplink
		chained := uo.OnControl
		uo.OnControl = func(f relay.ControlFrame) {
			s.onControl(f)
			if chained != nil {
				chained(f)
			}
		}
		s.up = NewUplink(opt.AggAddr, uo)
		opt.Live.Forward = s.forward
		userSession := opt.Live.OnSession
		opt.Live.OnSession = func(meta stream.Meta) {
			// The uplink claims the shard's whole slot space at the
			// aggregator, so late producers never outgrow the claim.
			meta.CPUs = opt.Live.CPUSlots
			s.up.Start(meta)
			if userSession != nil {
				userSession(meta)
			}
		}
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

// forward is the collector's Forward seam: relay accepted blocks upward,
// filtered by the shard's forward mode.
func (s *Shard) forward(h stream.BlockHeader, words []uint64, evs []event.Event) {
	if s.opt.Forward == ForwardCtrl {
		keep := false
		for i := range evs {
			if evs[i].Major() == event.MajorControl && evs[i].Minor() == event.CtrlMaskChange {
				keep = true
				break
			}
		}
		if !keep {
			return
		}
	}
	s.up.Feed(h, words)
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
	Forward        ForwardMode  `json:"forward"`
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
		Forward:        s.opt.Forward,
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
