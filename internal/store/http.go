package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"k42trace/internal/promtext"
)

// maxUploadBytes bounds one spill upload (1 GiB): a runaway client fails
// fast instead of filling the spool disk.
const maxUploadBytes = 1 << 30

// Handler returns the daemon's HTTP surface:
//
//	GET  /healthz                     liveness + config echo
//	GET  /metrics                     Prometheus text exposition
//	GET  /tenants                     per-tenant catalog summary (JSON)
//	POST /ingest?tenant=T             upload one .ktr spill (body = file)
//	GET  /query?tenant=T&from=&to=&major=&minor=&pid=&agg=&limit=&cursor=
//	POST /admin/compact?tenant=T      merge small adjacent segments
//	POST /admin/gc?tenant=T           apply retention now
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/tenants", s.handleTenants)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/admin/compact", s.handleCompact)
	mux.HandleFunc("/admin/gc", s.handleGC)
	return mux
}

func (s *Store) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"ok":           true,
		"root":         s.opt.Root,
		"segment_span": s.opt.SegmentSpan,
		"retain_age":   retainAgeString(s.opt.RetainAge),
		"retain_bytes": s.opt.RetainBytes,
		"tenants":      len(s.Tenants()),
	})
}

func (s *Store) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	s.metrics.Write(w, s)
}

func (s *Store) handleTenants(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Tenants())
}

func (s *Store) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodPut {
		http.Error(w, "POST a .ktr file body", http.StatusMethodNotAllowed)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if !ValidTenant(tenant) {
		http.Error(w, fmt.Sprintf("invalid tenant %q", tenant), http.StatusBadRequest)
		return
	}
	// Spool to a temp file: Ingest needs random access — it scans the
	// spill, then copies each block from it to its segment file — and holds
	// one block at a time, so an upload of any size stays out of memory.
	// Nobody else writes the spool, which is what reading it twice needs.
	tmp, err := os.CreateTemp("", "tracestored-upload-*.ktr")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	n, err := io.Copy(tmp, http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading upload: %v", err), http.StatusBadRequest)
		return
	}
	res, err := s.Ingest(tenant, tmp, n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

func (s *Store) handleQuery(w http.ResponseWriter, r *http.Request) {
	p, err := ParseParams(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.QueryCtx(r.Context(), p)
	var overload *ErrOverload
	switch {
	case err == nil:
	case errors.As(err, &overload):
		// Admission control refused the query: the tenant's queue is
		// full. Retry-After carries the server's slot-availability
		// estimate (seconds, rounded up).
		w.Header().Set("Retry-After", fmt.Sprint(int((overload.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case isGone(err):
		// A segment vanished between pin and scan (external deletion):
		// the catalog no longer matches the disk, so ask the client to
		// retry against the recovered view.
		http.Error(w, err.Error(), http.StatusGone)
		return
	case isNoTenant(err):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Events", fmt.Sprint(len(res.Events)))
	w.Header().Set("X-Blocks-Scanned", fmt.Sprint(res.BlocksScanned))
	w.Header().Set("X-Blocks-Pruned", fmt.Sprint(res.BlocksPruned))
	w.Header().Set("X-Segments-Pruned", fmt.Sprint(res.SegsPruned))
	w.Header().Set("X-Segments-Cached", fmt.Sprint(res.SegsCached))
	if res.NextCursor != "" {
		w.Header().Set("X-Next-Cursor", res.NextCursor)
	}
	if err := res.Format(w, s.opt.Workers); err != nil {
		// Headers are gone; all we can do is cut the connection short.
		return
	}
}

func (s *Store) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST", http.StatusMethodNotAllowed)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.CompactAll())
		return
	}
	res, err := s.Compact(tenant)
	if err != nil && !isNoTenant(err) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

func (s *Store) handleGC(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST", http.StatusMethodNotAllowed)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.GCAll())
		return
	}
	res, err := s.GC(tenant)
	if err != nil && !isNoTenant(err) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

func isNoTenant(err error) bool { return errors.Is(err, ErrNoTenant) }
