// Aggregator: the tier above the collectors. Shards relay their accepted
// blocks upward into an embedded live.Collector (the aggregator's
// "producers" are whole shards, each claiming the shard's slot space),
// heartbeat their cumulative overviews over HTTP for the federated
// merge, and receive mask fan-down through the same uplink connections —
// a mask POSTed at the aggregator reaches every producer on every shard
// via two hops of the PR 4 control machinery, with pending replay at
// both tiers.
package fed

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/live"
	"k42trace/internal/relay"
)

// AggOptions configures an Aggregator.
type AggOptions struct {
	// Live configures the embedded collector that ingests shard uplinks.
	// CPUSlots must cover sum(shard CPUSlots); spill here is the global
	// mirrored trace.
	Live live.Options
	// MemberTTL expires shards whose heartbeats stop (default 3s).
	MemberTTL time.Duration
	// Vnodes per member on the assignment ring (default DefaultVnodes).
	Vnodes int
}

// Aggregator federates a pool of collector shards.
type Aggregator struct {
	coll *live.Collector
	ms   *Membership

	sweepStop chan struct{}
	sweepOnce sync.Once
	sweepWG   sync.WaitGroup
}

// NewAggregator builds an aggregator. Uplinks connect to the relay
// listener served with Handler(); shards heartbeat to the HTTP surface
// served with Mux().
func NewAggregator(opt AggOptions) *Aggregator {
	if opt.MemberTTL <= 0 {
		opt.MemberTTL = 3 * time.Second
	}
	// Shard uplinks reconnect as fresh registrations after an aggregator
	// outage or their own restart; reclaiming slot slices keeps the slot
	// space bounded under that churn.
	opt.Live.ReclaimSlots = true
	a := &Aggregator{
		coll:      live.NewCollector(opt.Live),
		ms:        NewMembership(opt.MemberTTL, opt.Vnodes),
		sweepStop: make(chan struct{}),
	}
	a.sweepWG.Add(1)
	go a.sweeper(opt.MemberTTL)
	return a
}

// Collector exposes the embedded collector (metrics, snapshots, drain).
func (a *Aggregator) Collector() *live.Collector { return a.coll }

// Handler returns the relay handler for shard uplink connections.
func (a *Aggregator) Handler() relay.ConnHandler { return a.coll.Handler() }

// Drain stops the membership sweeper and drains the embedded collector.
// Call after the uplink relay server has been closed.
func (a *Aggregator) Drain() error {
	a.sweepOnce.Do(func() { close(a.sweepStop) })
	a.sweepWG.Wait()
	return a.coll.Drain()
}

func (a *Aggregator) sweeper(ttl time.Duration) {
	defer a.sweepWG.Done()
	t := time.NewTicker(ttl / 2)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.ms.Sweep()
		case <-a.sweepStop:
			return
		}
	}
}

// FedMember is one shard's row in the federated overview.
type FedMember struct {
	Name      string      `json:"name"`
	Addr      string      `json:"addr"`
	HTTP      string      `json:"http,omitempty"`
	State     MemberState `json:"state"`
	Producers int         `json:"producers"`
	Blocks    uint64      `json:"blocks"`
	Events    uint64      `json:"events"`
	Beats     uint64      `json:"beats"`
}

// FedOverview is the GET /fed/overview document: the ring epoch, every
// shard ever seen, and the merged per-process summary. Overview is the
// MergeOverview fold of the shards' own cumulative overviews (exact
// after a full drain, since each shard's final heartbeat carries the
// overview that equals the offline Overview of its spill);
// MirrorOverview is what the aggregator's embedded collector computed
// from the blocks actually relayed upward (equal to Overview when every
// shard forwards everything losslessly, thinner under ctrl-only
// forwarding or uplink drops).
type FedOverview struct {
	Epoch          uint64                 `json:"epoch"`
	Members        []FedMember            `json:"members"`
	Overview       []analysis.ProcSummary `json:"overview"`
	MirrorOverview []analysis.ProcSummary `json:"mirror_overview,omitempty"`
	MaskEpochs     []analysis.MaskEpoch   `json:"mask_epochs,omitempty"`
}

// Overview builds the federated overview document.
func (a *Aggregator) Overview() FedOverview {
	doc := FedOverview{
		Epoch:    a.ms.Ring().Epoch(),
		Overview: a.ms.MergedOverview(),
	}
	for _, m := range a.ms.Members() {
		doc.Members = append(doc.Members, FedMember{
			Name: m.Name, Addr: m.Addr, HTTP: m.HTTP, State: m.State,
			Producers: m.Producers, Blocks: m.Blocks, Events: m.Events, Beats: m.Beats,
		})
	}
	snap := a.coll.Snapshot()
	doc.MirrorOverview = snap.Overview
	doc.MaskEpochs = snap.MaskEpochs
	return doc
}

// Mux returns the aggregator's HTTP surface: everything the embedded
// collector serves (/healthz, /metrics, /live/overview, /live/windows,
// /live/mask — the mask endpoint IS the fan-down entry point), plus the
// federation endpoints:
//
//	/fed/ring       GET the ring document producers resolve owners from
//	/fed/heartbeat  POST one shard heartbeat (JSON Heartbeat body)
//	/fed/overview   GET the federated merged overview
//	/fed/members    GET full member records, including shard overviews
func (a *Aggregator) Mux() *http.ServeMux {
	mux := a.coll.Mux()
	mux.HandleFunc("/fed/ring", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.ms.Doc())
	})
	mux.HandleFunc("/fed/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST", http.StatusMethodNotAllowed)
			return
		}
		var hb Heartbeat
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&hb); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if hb.Name == "" || hb.Addr == "" {
			http.Error(w, "heartbeat needs name and addr", http.StatusBadRequest)
			return
		}
		epoch := a.ms.Beat(hb)
		writeJSON(w, map[string]uint64{"epoch": epoch})
	})
	mux.HandleFunc("/fed/overview", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.Overview())
	})
	mux.HandleFunc("/fed/members", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.ms.Members())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
