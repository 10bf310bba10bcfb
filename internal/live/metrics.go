package live

import (
	"io"
	"maps"
	"math/bits"
	"slices"
	"strconv"

	"k42trace/internal/event"
	"k42trace/internal/promtext"
)

// WriteMetrics renders the collector state in the Prometheus text
// exposition format. Counters are cumulative for the daemon lifetime;
// producers that disconnected keep reporting their final totals so
// rate() over a scrape gap stays correct.
func (c *Collector) WriteMetrics(w io.Writer) {
	writeMetricsSnapshot(w, c.Snapshot())
}

// writeMetricsSnapshot renders an already-taken snapshot; split out so
// tests can feed hostile snapshots (label values with quotes, backslashes,
// newlines) without a live session behind them.
func writeMetricsSnapshot(w io.Writer, s Snapshot) {
	for _, f := range metricFamilies {
		promtext.Family(w, f.name, f.typ, f.help)
		f.samples(s, func(v int64, labels ...string) { promtext.Sample(w, f.name, v, labels...) })
	}
}

// A metricFamily is one family of the page: its samples are emitted from a
// snapshot.
type metricFamily struct {
	name, typ, help string
	samples         func(s Snapshot, emit emitFunc)
}

// An emitFunc writes one sample of the family being rendered.
type emitFunc func(v int64, labels ...string)

// metricFamilies is the page, in order. Full 64-bit masks don't fit a
// float64 sample value exactly, so the mask gauges expose enabled-major
// counts; the exact hex masks live in the /live/mask JSON.
var metricFamilies = []metricFamily{
	{"tracecolld_blocks_received_total", "counter", "Blocks accepted per producer.",
		perProducer(func(p ProducerSnapshot) int64 { return int64(p.Blocks) })},
	{"tracecolld_bytes_received_total", "counter", "Wire bytes consumed per producer (block strides, including damaged ones).",
		perProducer(func(p ProducerSnapshot) int64 { return int64(p.Bytes) })},
	{"tracecolld_events_received_total", "counter", "Decoded events per producer.",
		perProducer(func(p ProducerSnapshot) int64 { return int64(p.Events) })},
	{"tracecolld_garbled_blocks_total", "counter", "Blocks with damaged headers or garbled payloads per producer.",
		perProducer(func(p ProducerSnapshot) int64 { return int64(p.Garbled) })},
	{"tracecolld_stuck_seal_blocks_total", "counter", "Blocks sealed anomalous (stuck-slot reclaim) per producer.",
		perProducer(func(p ProducerSnapshot) int64 { return int64(p.StuckSeals) })},
	{"tracecolld_reordered_blocks_total", "counter", "Blocks arriving with non-monotonic per-CPU sequence numbers.",
		perProducer(func(p ProducerSnapshot) int64 { return int64(p.Reordered) })},
	{"tracecolld_window_lag_windows", "gauge", "Analysis windows each producer trails the newest event.",
		perProducer(func(p ProducerSnapshot) int64 { return int64(p.LagWindows) })},
	{"tracecolld_producer_info", "gauge", "Producer identity: id label is stable, remote is the peer address.",
		func(s Snapshot, emit emitFunc) {
			for _, p := range s.Producers {
				emit(1, "producer", producerID(p), "remote", p.Remote)
			}
		}},
	{"tracecolld_producers_connected", "gauge", "Currently connected producers.",
		whole(func(s Snapshot) int64 {
			n := 0
			for _, p := range s.Producers {
				if p.Connected {
					n++
				}
			}
			return int64(n)
		})},
	{"tracecolld_disconnects_total", "counter", "Abnormal producer disconnects by reason.",
		func(s Snapshot, emit emitFunc) {
			for _, r := range slices.Sorted(maps.Keys(s.Disconnects)) {
				emit(int64(s.Disconnects[r]), "reason", r)
			}
		}},
	{"tracecolld_mask_updates_sent_total", "counter", "Mask-update control frames written to producers.",
		whole(func(s Snapshot) int64 { return int64(s.MaskSends) })},
	{"tracecolld_mask_changes_total", "counter", "CtrlMaskChange markers observed per producer.",
		perProducer(func(p ProducerSnapshot) int64 { return int64(p.MaskChanges) })},
	{"tracecolld_applied_mask_majors", "gauge", "Enabled major classes in each producer's newest applied mask (-1 before any CtrlMaskChange).",
		perProducer(func(p ProducerSnapshot) int64 { return maskMajors(p.AppliedMask) })},
	{"tracecolld_desired_mask_majors", "gauge", "Enabled major classes in the pending broadcast mask (-1 if never set).",
		whole(func(s Snapshot) int64 { return maskMajors(s.DesiredMask) })},
	{"tracecolld_windows_live", "gauge", "Analysis windows currently held.",
		whole(func(s Snapshot) int64 { return int64(s.Stats.LiveWindows) })},
	{"tracecolld_windows_evicted_total", "counter", "Analysis windows evicted to bound memory.",
		whole(func(s Snapshot) int64 { return int64(s.Stats.EvictedWindows) })},
	{"tracecolld_late_events_total", "counter", "Events that landed in already-evicted windows.",
		whole(func(s Snapshot) int64 { return int64(s.Stats.LateEvents) })},
	{"tracecolld_events_total", "counter", "Events fed to the analysis engine.",
		whole(func(s Snapshot) int64 { return int64(s.Stats.Events) })},
	{"tracecolld_blocks_total", "counter", "Blocks fed to the analysis engine.",
		whole(func(s Snapshot) int64 { return int64(s.Stats.Blocks) })},
}

// perProducer is a family with one sample per producer.
func perProducer(v func(ProducerSnapshot) int64) func(Snapshot, emitFunc) {
	return func(s Snapshot, emit emitFunc) {
		for _, p := range s.Producers {
			emit(v(p), "producer", producerID(p))
		}
	}
}

// whole is a family with one unlabelled sample for the whole collector.
func whole(v func(Snapshot) int64) func(Snapshot, emitFunc) {
	return func(s Snapshot, emit emitFunc) { emit(v(s)) }
}

// producerID is the label that names a producer: its id, which is stable
// for the daemon lifetime (remotes move around; ids don't).
func producerID(p ProducerSnapshot) string { return strconv.FormatUint(p.ID, 10) }

// maskMajors counts the majors a snapshot's hex mask enables: -1 for a mask
// never set ("").
func maskMajors(hex string) int64 {
	m, err := event.ParseMask(hex)
	if err != nil {
		return -1
	}
	return int64(bits.OnesCount64(m))
}
