// Package promtext writes the Prometheus text exposition format (version
// 0.0.4): the one renderer behind every daemon's /metrics page. It takes no
// dependency beyond the standard library.
package promtext

import (
	"fmt"
	"io"
	"strings"
)

// ContentType is the exposition's media type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Value is a sample's value: a count, a gauge that may be negative, or a
// float.
type Value interface {
	uint64 | int64 | float64
}

// Family writes a metric family's # HELP and # TYPE lines; its samples
// follow them.
func Family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line. labels alternate label names and values;
// each value is escaped.
func Sample[V Value](w io.Writer, name string, v V, labels ...string) {
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		name += fmt.Sprintf(`%s%s="%s"`, sep, labels[i], escapeLabel(labels[i+1]))
		sep = ","
	}
	if sep == "," {
		name += "}"
	}
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// escapeLabel escapes a label value: inside double quotes, backslash,
// double-quote and line feed are written \\, \" and \n — and nothing else
// (Go's %q also escapes non-ASCII and control bytes, which the format
// forbids, so it cannot be used here).
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Histogram is a cumulative histogram over fixed upper bounds. It has no
// lock: its owner serialises Observe and Write.
type Histogram struct {
	bounds []float64
	counts []uint64 // counts[i] observations were <= bounds[i]
	count  uint64
	sum    float64
}

// NewHistogram returns an empty histogram over ascending upper bounds.
func NewHistogram(bounds []float64) Histogram {
	return Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
		}
	}
}

// Write writes the histogram as the family name: a bucket per bound, the
// +Inf bucket, the sum and the count.
func (h *Histogram) Write(w io.Writer, name, help string) {
	Family(w, name, "histogram", help)
	for i, ub := range h.bounds {
		Sample(w, name+"_bucket", h.counts[i], "le", fmt.Sprintf("%g", ub))
	}
	Sample(w, name+"_bucket", h.count, "le", "+Inf")
	Sample(w, name+"_sum", h.sum)
	Sample(w, name+"_count", h.count)
}
