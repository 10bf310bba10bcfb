// Aggregator: the tier above the collectors. Shards relay their
// mask-marker blocks upward into an embedded live.Collector (the
// aggregator's "producers" are whole shards, each claiming the shard's
// slot space), heartbeat their cumulative overviews over HTTP for the
// federated merge, and receive mask fan-down through the same uplink
// connections — a mask POSTed at the aggregator reaches every producer on
// every shard via two hops of the relay control machinery, with pending
// replay at both tiers.
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
	// CPUSlots is the slot space of the embedded collector that ingests
	// shard uplinks (default 256). It must cover sum(shard CPUSlots).
	CPUSlots int
	// MemberTTL expires shards whose heartbeats stop (default 3s).
	MemberTTL time.Duration
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
	a := &Aggregator{
		// Shard uplinks reconnect as fresh registrations after an
		// aggregator outage or their own restart; reclaiming slot slices
		// keeps the slot space bounded under that churn.
		coll:      live.NewCollector(live.Options{CPUSlots: opt.CPUSlots, ReclaimSlots: true}),
		ms:        NewMembership(opt.MemberTTL),
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
	// A TTL under 2 ms still sweeps at a period the ticker accepts.
	t := time.NewTicker(max(ttl/2, time.Millisecond))
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
// shard ever seen in name order, the merged per-process summary, and the
// mask epochs. Overview is the MergeOverview fold of the shards' own
// cumulative overviews (exact after a full drain, since each shard's
// final heartbeat carries the overview that equals the offline Overview
// of its spill). MaskEpochs are the CtrlMaskChange markers in the blocks
// the shards relayed upward, on the aggregator's remapped CPUs.
type FedOverview struct {
	Epoch      uint64                 `json:"epoch"`
	Members    []FedMember            `json:"members"`
	Overview   []analysis.ProcSummary `json:"overview"`
	MaskEpochs []analysis.MaskEpoch   `json:"mask_epochs,omitempty"`
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
	doc.MaskEpochs = a.coll.Snapshot().MaskEpochs
	return doc
}

// Mux returns the aggregator's HTTP surface: the embedded collector's
// /healthz, /metrics and /live/mask (the fan-down entry point) — not its
// /live/overview or /live/windows, which over marker blocks show no
// fleet — plus the federation endpoints:
//
//	/fed/ring       GET the ring document producers resolve owners from
//	/fed/heartbeat  POST one shard heartbeat (JSON Heartbeat body)
//	/fed/overview   GET the federated merged overview
//	/fed/members    GET full member records, including shard overviews
func (a *Aggregator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	coll := a.coll.Mux()
	for _, path := range []string{"/healthz", "/metrics", "/live/mask"} {
		mux.Handle(path, coll)
	}
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
