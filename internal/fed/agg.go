// Aggregator: the tier above the collectors. Its one channel to a shard
// is the HTTP heartbeat: each beat carries the shard's cumulative
// overview and newest mask epochs up for the federated merge, and each
// reply carries the aggregator's desired trace mask down, which the shard
// broadcasts to its producers (with its own pending replay for producers
// that connect later) whenever it changes. A mask POSTed at the
// aggregator therefore reaches every producer on every shard within one
// heartbeat period plus a round trip.
package fed

import (
	"cmp"
	"encoding/json"
	"io"
	"math/bits"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"k42trace/internal/analysis"
	"k42trace/internal/event"
	"k42trace/internal/promtext"
)

// AggOptions configures an Aggregator.
type AggOptions struct {
	// MemberTTL expires shards whose heartbeats stop (default 3s).
	MemberTTL time.Duration
}

// Aggregator federates a pool of collector shards. It starts no
// goroutine: its membership expires silent shards whenever it is read.
type Aggregator struct {
	ms   *Membership
	mask atomic.Value // the desired mask's hex literal, once set
}

// NewAggregator builds an aggregator. Shards heartbeat to, and producers
// resolve owners from, the HTTP surface served with Mux().
func NewAggregator(opt AggOptions) *Aggregator {
	return &Aggregator{ms: NewMembership(opt.MemberTTL)}
}

// SetMask sets the desired trace mask every shard takes from its next
// heartbeat reply. The MajorControl bit is always forced on, as a
// collector forces it: a stream without control events is not decodable.
func (a *Aggregator) SetMask(mask uint64) {
	a.mask.Store(event.MaskString(mask | event.MajorControl.Bit()))
}

// desiredMask is the desired mask as a hex literal, "" if never set.
func (a *Aggregator) desiredMask() string {
	m, _ := a.mask.Load().(string)
	return m
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
// of its spill). MaskEpochs are the shards' newest mask epochs from their
// heartbeats, in time order with members in name order at equal times;
// each CPU number is the reporting shard's own.
type FedOverview struct {
	Epoch      uint64                 `json:"epoch"`
	Members    []FedMember            `json:"members"`
	Overview   []analysis.ProcSummary `json:"overview"`
	MaskEpochs []analysis.MaskEpoch   `json:"mask_epochs,omitempty"`
}

// Overview builds the federated overview document from one snapshot of
// the membership. Every member's overview folds in — active, left and
// expired alike, since all of it was really ingested — in name order, so
// a pid two shards name differently keeps the name-first shard's name.
func (a *Aggregator) Overview() FedOverview {
	members, epoch := a.ms.snapshot()
	doc := FedOverview{Epoch: epoch}
	parts := make([][]analysis.ProcSummary, 0, len(members))
	for _, m := range members {
		doc.Members = append(doc.Members, FedMember{
			Name: m.Name, Addr: m.Addr, HTTP: m.HTTP, State: m.State,
			Producers: m.Producers, Blocks: m.Blocks, Events: m.Events, Beats: m.Beats,
		})
		parts = append(parts, m.Overview)
		doc.MaskEpochs = append(doc.MaskEpochs, m.MaskEpochs...)
	}
	doc.Overview = analysis.MergeOverview(parts...)
	slices.SortStableFunc(doc.MaskEpochs, func(x, y analysis.MaskEpoch) int { return cmp.Compare(x.Time, y.Time) })
	return doc
}

// Mux returns the aggregator's HTTP surface:
//
//	/healthz        liveness (200 "ok")
//	/metrics        Prometheus text exposition of the membership
//	/live/mask      GET the desired mask; POST mask=<spec> sets it
//	/fed/ring       GET the ring document producers resolve owners from
//	/fed/heartbeat  POST one shard heartbeat (JSON Heartbeat body)
//	/fed/overview   GET the federated merged overview
//	/fed/members    GET full member records, including shard overviews
func (a *Aggregator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", promtext.ContentType)
		a.writeMetrics(w)
	})
	mux.HandleFunc("/live/mask", a.handleMask)
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
		writeJSON(w, HeartbeatReply{Epoch: a.ms.Beat(hb), Mask: a.desiredMask()})
	})
	mux.HandleFunc("/fed/overview", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.Overview())
	})
	mux.HandleFunc("/fed/members", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, a.ms.Members())
	})
	return mux
}

// writeMetrics renders what the aggregator knows: its members by state,
// the ring epoch, the heartbeats received and the desired mask. As on a
// collector's page, the mask gauge counts enabled majors, since a 64-bit
// mask does not fit a float64 sample exactly.
func (a *Aggregator) writeMetrics(w io.Writer) {
	members, epoch := a.ms.snapshot()
	states := map[MemberState]int64{}
	var beats uint64
	for _, m := range members {
		states[m.State]++
		beats += m.Beats
	}
	promtext.Family(w, "traceaggd_members", "gauge", "Shards ever seen, by ring state.")
	for _, st := range []MemberState{StateActive, StateLeft, StateExpired} {
		promtext.Sample(w, "traceaggd_members", states[st], "state", string(st))
	}
	promtext.Family(w, "traceaggd_ring_epoch", "gauge", "Ring epoch, advanced by every membership change.")
	promtext.Sample(w, "traceaggd_ring_epoch", epoch)
	promtext.Family(w, "traceaggd_heartbeats_total", "counter", "Shard heartbeats received.")
	promtext.Sample(w, "traceaggd_heartbeats_total", beats)
	majors := int64(-1)
	if m, err := event.ParseMask(a.desiredMask()); err == nil {
		majors = int64(bits.OnesCount64(m))
	}
	promtext.Family(w, "traceaggd_desired_mask_majors", "gauge", "Enabled major classes in the desired mask (-1 if never set).")
	promtext.Sample(w, "traceaggd_desired_mask_majors", majors)
}

// handleMask is the federation's mask entry point, the collector's
// /live/mask without its producer= target: the aggregator knows shards,
// not producers, so it can only broadcast.
//
//	curl -X POST 'http://host/live/mask' -d mask=ctrl,sched,lock
func (a *Aggregator) handleMask(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.Form.Has("producer") {
			http.Error(w, "the aggregator only broadcasts: POST producer= to the shard that holds it", http.StatusBadRequest)
			return
		}
		mask, err := event.ParseMask(r.Form.Get("mask"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a.SetMask(mask)
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, struct {
		DesiredMask string `json:"desired_mask,omitempty"`
	}{a.desiredMask()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
