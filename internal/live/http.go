package live

import (
	"encoding/json"
	"net/http"
	"strconv"

	"k42trace/internal/event"
	"k42trace/internal/promtext"
)

// Mux returns the collector's HTTP surface:
//
//	/healthz        liveness (200 "ok", or 503 while draining)
//	/metrics        Prometheus text exposition
//	/live/overview  cumulative per-process summary + producer states (JSON)
//	/live/windows   per-window detailed snapshots, oldest first (JSON)
//	/live/mask      GET control-plane state; POST mask=<spec> [producer=<id>]
//
// Every response is built from a Snapshot taken under the collector
// lock — plain resolved data, so a slow scraper never blocks ingest
// longer than one snapshot.
func (c *Collector) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if c.Snapshot().Draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", promtext.ContentType)
		c.WriteMetrics(w)
	})
	mux.HandleFunc("/live/overview", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Snapshot())
	})
	mux.HandleFunc("/live/windows", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Windows())
	})
	mux.HandleFunc("/live/mask", c.handleMask)
	return mux
}

// handleMask is the mask control endpoint. GET reports MaskStatus. POST
// takes mask=<spec> — a hex literal ("0x1f"), "all"/"none", or a
// comma-separated major list ("ctrl,mem,sched") — and an optional
// producer=<id> to target one producer instead of broadcasting:
//
//	curl -X POST 'http://host/live/mask' -d mask=ctrl,sched,lock
//	curl -X POST 'http://host/live/mask' -d mask=0xffff -d producer=2
func (c *Collector) handleMask(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, c.MaskStatus())
	case http.MethodPost:
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec := r.Form.Get("mask")
		mask, err := event.ParseMask(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var producerID uint64
		if s := r.Form.Get("producer"); s != "" {
			producerID, err = strconv.ParseUint(s, 10, 64)
			if err != nil || producerID == 0 {
				http.Error(w, "bad producer id", http.StatusBadRequest)
				return
			}
		}
		if err := c.SetMask(mask, producerID); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, c.MaskStatus())
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
