// Shard: one collector inside a federation. A shard is a plain
// live.Collector plus a heartbeat loop: each beat announces the shard's
// address, cumulative overview and newest mask epochs, so the aggregator
// can keep it on the assignment ring and in the federated merge, and each
// reply names the aggregator's desired mask, which the shard turns into
// the collector's own SetMask broadcast (the fan-down).
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
	// AggHTTP is the aggregator's HTTP base URL (e.g. "http://host:port")
	// for heartbeats ("" runs the shard standalone: no membership, no
	// fan-down).
	AggHTTP string
	// HeartbeatEvery is the announce period (default 1s). A mask set at
	// the aggregator reaches this shard within one period plus a round
	// trip.
	HeartbeatEvery time.Duration
}

// Shard heartbeats for a live.Collector.
type Shard struct {
	opt  ShardOptions
	coll *live.Collector
	// taken is the newest mask taken from a heartbeat reply, as its hex
	// literal. Only the heartbeat caller touches it, and heartbeats never
	// overlap: Drain and kill wait the loop out before the last one.
	taken string

	client *http.Client

	hbStop chan struct{}
	hbOnce sync.Once
	hbWG   sync.WaitGroup

	beatsOK  atomic.Uint64
	beatsErr atomic.Uint64
	ctrlMask atomic.Uint64 // masks taken from heartbeat replies
}

// NewShard starts heartbeating for c (when AggHTTP is set). The caller
// serves c's producers and HTTP surface, mounts the shard at /fed/shard,
// and shuts down with the relay server's CloseNow followed by s.Drain(),
// which drains c.
func NewShard(c *live.Collector, opt ShardOptions) (*Shard, error) {
	if opt.AggHTTP != "" && (opt.Name == "" || opt.Advertise == "") {
		return nil, fmt.Errorf("fed: shard heartbeats need Name and Advertise")
	}
	if opt.HeartbeatEvery <= 0 {
		opt.HeartbeatEvery = time.Second
	}
	s := &Shard{
		opt:    opt,
		coll:   c,
		client: &http.Client{Timeout: 2 * time.Second},
		hbStop: make(chan struct{}),
	}
	if opt.AggHTTP != "" {
		s.hbWG.Add(1)
		go s.heartbeatLoop()
	}
	return s, nil
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

// heartbeat sends one beat and takes the desired mask from the reply:
// a mask this shard has not taken yet becomes its own broadcast, which
// sends to every connected producer and arms the pending replay for
// producers that connect — or rehash over — later. The leaving beat takes
// nothing: the shard has no producers left to tell.
func (s *Shard) heartbeat(leaving bool) error {
	snap := s.coll.Snapshot()
	hb := Heartbeat{
		Name:       s.opt.Name,
		Addr:       s.opt.Advertise,
		HTTP:       s.opt.HTTP,
		Leaving:    leaving,
		Overview:   snap.Overview,
		MaskEpochs: snap.MaskEpochs,
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
	defer resp.Body.Close()
	var reply HeartbeatReply
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("fed: heartbeat: %s", resp.Status)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&reply)
	}
	if err != nil {
		s.beatsErr.Add(1)
		return err
	}
	s.beatsOK.Add(1)
	if leaving || reply.Mask == "" || reply.Mask == s.taken {
		return nil
	}
	mask, err := event.ParseMask(reply.Mask)
	if err != nil {
		return fmt.Errorf("fed: heartbeat reply: %w", err)
	}
	s.taken = reply.Mask
	s.ctrlMask.Add(1)
	return s.coll.SetMask(mask, 0)
}

// Drain finishes the shard's session: stop heartbeating, drain the
// collector (exact spill), and send the final Leaving heartbeat whose
// overview and mask epochs are the shard's exact totals — the values the
// federated merge keeps counting after this shard is gone.
// Call after the producer-facing relay server has been closed.
func (s *Shard) Drain() error {
	err := s.kill()
	if s.opt.AggHTTP != "" {
		s.heartbeat(true)
	}
	return err
}

// kill is the SIGKILL analogue for tests: stop heartbeating WITHOUT the
// final Leaving beat, and drain the collector. The aggregator only learns
// of the death on a read past the heartbeat TTL, exactly as with a real
// killed process — the shard leaves the ring as StateExpired and its
// last-reported overview keeps counting as a lower bound.
func (s *Shard) kill() error {
	s.hbOnce.Do(func() { close(s.hbStop) })
	s.hbWG.Wait()
	return s.coll.Drain()
}

// ShardStats is the GET /fed/shard document.
type ShardStats struct {
	Name          string `json:"name"`
	Advertise     string `json:"advertise"`
	HeartbeatsOK  uint64 `json:"heartbeats_ok"`
	HeartbeatsErr uint64 `json:"heartbeats_err"`
	// CtrlMaskFrames counts the masks taken from heartbeat replies and
	// broadcast to this shard's producers.
	CtrlMaskFrames uint64 `json:"ctrl_mask_frames"`
}

// Stats snapshots the shard's federation counters.
func (s *Shard) Stats() ShardStats {
	return ShardStats{
		Name:           s.opt.Name,
		Advertise:      s.opt.Advertise,
		HeartbeatsOK:   s.beatsOK.Load(),
		HeartbeatsErr:  s.beatsErr.Load(),
		CtrlMaskFrames: s.ctrlMask.Load(),
	}
}

// ServeHTTP serves GET /fed/shard: the federation counters.
func (s *Shard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}
