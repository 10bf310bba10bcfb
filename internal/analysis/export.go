package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"k42trace/internal/event"
)

// This file is the KUtrace-style post-processing exit: a trace (or a
// window of one) exported as structured JSON plus a self-contained
// interactive HTML timeline — pan/zoom per-CPU span rendering with
// lock-wait bands, mask-epoch shading, and event markers, all data
// embedded in the one file with no network references. It succeeds the
// static SVG as the way to *look* at a run, and ktrace diff stacks two
// exports in one page for visual cross-run comparison.

// TLSpan is one maximal run of constant CPU state in a TimelineExport.
// Field names are compressed in JSON because a trace exports one span per
// state change.
type TLSpan struct {
	From uint64 `json:"f"`
	To   uint64 `json:"t"`
	// Mode indexes TimelineExport.ModeNames (a ModeKind value).
	Mode int `json:"m"`
	// Pid is the scheduled process over the span.
	Pid uint64 `json:"p"`
}

// TimelineExport is the JSON-ready form of a trace's timeline: exact
// per-CPU span sequences (not bucketed like Timeline), the mask-change
// epochs, and marked event occurrences, plus the naming needed to render
// them standalone.
type TimelineExport struct {
	Label   string `json:"label"`
	ClockHz uint64 `json:"clockHz"`
	Start   uint64 `json:"start"`
	End     uint64 `json:"end"`
	// ModeNames and ModeColors describe the mode space by index; colors
	// match the SVG renderer so both views agree.
	ModeNames  []string `json:"modeNames"`
	ModeColors []string `json:"modeColors"`
	// CPUs[cpu] is the CPU's span sequence, time-ordered, coalesced over
	// consecutive spans with equal (mode, pid).
	CPUs [][]TLSpan `json:"cpus"`
	// MaskEpochs are the CtrlMaskChange markers inside [Start, End].
	MaskEpochs []MaskEpoch `json:"maskEpochs"`
	// Markers maps a marked event name to its occurrence times.
	Markers map[string][]uint64 `json:"markers"`
	// Procs names the pids appearing in spans (decimal-string keys, since
	// JSON objects key on strings).
	Procs map[string]string `json:"procs"`
}

// ExportTimelineRange exports the [from, to] window of the trace;
// markNames selects event names whose occurrences are marked, as in
// Timeline.
func (t *Trace) ExportTimelineRange(from, to uint64, markNames ...string) *TimelineExport {
	if to <= from {
		to = from + 1
	}
	nCPU := MaxCPU(t.Events) + 1
	x := &TimelineExport{
		ClockHz:    t.ClockHz,
		Start:      from,
		End:        to,
		ModeNames:  make([]string, NumModes),
		ModeColors: make([]string, NumModes),
		CPUs:       make([][]TLSpan, nCPU),
		Markers:    map[string][]uint64{},
		Procs:      map[string]string{},
	}
	for m := 0; m < NumModes; m++ {
		x.ModeNames[m] = ModeKind(m).String()
		x.ModeColors[m] = modeColor(ModeKind(m))
	}
	wantMark := map[string]bool{}
	for _, n := range markNames {
		wantMark[n] = true
	}
	pids := map[uint64]bool{}
	Walk(t.Events, nCPU-1, Hooks{
		Span: func(cpu int, st *CPUState, sFrom, sTo uint64) {
			if sTo <= from || sFrom >= to {
				return
			}
			if sFrom < from {
				sFrom = from
			}
			if sTo > to {
				sTo = to
			}
			mode, pid := int(st.Mode()), st.Pid
			row := x.CPUs[cpu]
			if n := len(row); n > 0 && row[n-1].To == sFrom &&
				row[n-1].Mode == mode && row[n-1].Pid == pid {
				x.CPUs[cpu][n-1].To = sTo
				return
			}
			x.CPUs[cpu] = append(row, TLSpan{From: sFrom, To: sTo, Mode: mode, Pid: pid})
			pids[pid] = true
		},
		Event: func(e *event.Event, st *CPUState) {
			if len(wantMark) == 0 || e.Time < from || e.Time > to {
				return
			}
			if d := t.Reg.Lookup(e.Major(), e.Minor()); d != nil && wantMark[d.Name] {
				x.Markers[d.Name] = append(x.Markers[d.Name], e.Time)
			}
		},
	})
	for _, ep := range t.MaskEpochs {
		if ep.Time >= from && ep.Time <= to {
			x.MaskEpochs = append(x.MaskEpochs, ep)
		}
	}
	for pid := range pids {
		x.Procs[strconv.FormatUint(pid, 10)] = t.ProcName(pid)
	}
	return x
}

// JSON renders the export. Output is deterministic: struct fields are in
// declaration order and map keys are sorted by encoding/json.
func (x *TimelineExport) JSON() ([]byte, error) { return json.Marshal(x) }

// WriteTimelineHTML writes a self-contained interactive HTML timeline for
// one or more runs stacked in a single page with a shared (normalized)
// time axis — the ktrace diff -html view passes the two aligned runs. The
// document embeds all data and script inline: no network references, and
// byte-identical output for identical inputs.
func WriteTimelineHTML(w io.Writer, title string, runs ...*TimelineExport) error {
	payload := make([]json.RawMessage, 0, len(runs))
	for _, r := range runs {
		b, err := r.JSON()
		if err != nil {
			return err
		}
		payload = append(payload, b)
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	esc := htmlEscape(title)
	if _, err := fmt.Fprintf(w, timelineHTMLHead, esc, esc); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "<script>\nconst RUNS = %s;\n", data); err != nil {
		return err
	}
	_, err = io.WriteString(w, timelineHTMLScript)
	return err
}

// htmlEscape escapes text for embedding in the HTML template.
func htmlEscape(s string) string {
	var out []byte
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			out = append(out, "&amp;"...)
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

const timelineHTMLHead = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>%s</title>
<style>
body { margin: 0; font: 13px/1.4 monospace; background: #ffffff; color: #222222; }
h1 { font-size: 15px; margin: 10px 12px 4px; }
#legend { margin: 0 12px 6px; }
#legend span { display: inline-block; margin-right: 10px; }
#legend i { display: inline-block; width: 10px; height: 10px; margin-right: 4px; vertical-align: -1px; }
.runlabel { margin: 8px 12px 2px; font-weight: bold; }
canvas { display: block; margin: 0 12px; border: 1px solid #cccccc; }
#tip { position: fixed; pointer-events: none; background: #222222; color: #ffffff;
       padding: 3px 6px; border-radius: 3px; visibility: hidden; z-index: 2; }
#help { margin: 6px 12px 12px; color: #777777; }
</style>
</head>
<body>
<h1>%s</h1>
<div id="legend"></div>
<div id="panes"></div>
<div id="tip"></div>
<div id="help">drag: pan &middot; wheel: zoom &middot; double-click: reset &middot;
shaded bands: mask epochs &middot; thin underline: lock wait</div>
`

const timelineHTMLScript = `
// Shared normalized view [v0,v1) of each run's own [start,end] range, so
// stacked runs stay aligned while panning/zooming.
let v0 = 0, v1 = 1;
const ROW = 18, PAD = 28, LEFT = 52;
const panes = [];

function legend() {
  const el = document.getElementById('legend');
  const r = RUNS[0];
  let h = '';
  for (let m = 0; m < r.modeNames.length; m++) {
    h += '<span><i style="background:' + r.modeColors[m] + '"></i>' + r.modeNames[m] + '</span>';
  }
  el.innerHTML = h;
}

function build() {
  const host = document.getElementById('panes');
  for (const run of RUNS) {
    if (run.label) {
      const d = document.createElement('div');
      d.className = 'runlabel';
      d.textContent = run.label;
      host.appendChild(d);
    }
    const c = document.createElement('canvas');
    host.appendChild(c);
    const p = { run: run, canvas: c, ctx: c.getContext('2d') };
    panes.push(p);
    hook(p);
  }
}

function xOf(p, t) {
  const run = p.run, w = p.canvas.width - LEFT;
  const n = (t - run.start) / (run.end - run.start);
  return LEFT + (n - v0) / (v1 - v0) * w;
}

function tOf(p, x) {
  const run = p.run, w = p.canvas.width - LEFT;
  const n = v0 + (x - LEFT) / w * (v1 - v0);
  return run.start + n * (run.end - run.start);
}

function draw() {
  for (const p of panes) drawPane(p);
}

function drawPane(p) {
  const run = p.run, ctx = p.ctx, c = p.canvas;
  c.width = document.body.clientWidth - 26;
  c.height = run.cpus.length * ROW + PAD;
  ctx.fillStyle = '#ffffff';
  ctx.fillRect(0, 0, c.width, c.height);
  // Mask-epoch shading: alternate background between consecutive epochs.
  const eps = run.maskEpochs || [];
  const cuts = [run.start];
  for (const e of eps) cuts.push(e.time);
  cuts.push(run.end);
  for (let i = 1; i + 1 < cuts.length; i += 2) {
    const x0 = Math.max(LEFT, xOf(p, cuts[i])), x1 = Math.min(c.width, xOf(p, cuts[i + 1]));
    if (x1 > x0) { ctx.fillStyle = 'rgba(120,100,180,0.10)'; ctx.fillRect(x0, 0, x1 - x0, c.height - 12); }
  }
  for (let cpu = 0; cpu < run.cpus.length; cpu++) {
    const y = 14 + cpu * ROW;
    ctx.fillStyle = '#222222';
    ctx.font = '11px monospace';
    ctx.fillText('cpu' + cpu, 4, y + 11);
    for (const s of run.cpus[cpu]) {
      let x0 = xOf(p, s.f), x1 = xOf(p, s.t);
      if (x1 < LEFT || x0 > c.width) continue;
      x0 = Math.max(x0, LEFT); x1 = Math.min(x1, c.width);
      if (x1 - x0 < 0.25) x1 = x0 + 0.25;
      ctx.fillStyle = run.modeColors[s.m];
      ctx.fillRect(x0, y, x1 - x0, ROW - 5);
      if (run.modeNames[s.m] === 'lockwait') {
        ctx.fillRect(x0, y + ROW - 4, x1 - x0, 2); // lock-wait band
      }
    }
  }
  // Mask-epoch boundary lines.
  ctx.strokeStyle = '#7a5fb5';
  ctx.setLineDash([4, 3]);
  for (const e of eps) {
    const x = xOf(p, e.time);
    if (x < LEFT || x > c.width) continue;
    ctx.beginPath(); ctx.moveTo(x, 0); ctx.lineTo(x, c.height - 12); ctx.stroke();
  }
  ctx.setLineDash([]);
  // Markers.
  ctx.fillStyle = '#222222';
  for (const name of Object.keys(run.markers || {})) {
    for (const t of run.markers[name]) {
      const x = xOf(p, t);
      if (x < LEFT || x > c.width) continue;
      ctx.beginPath();
      ctx.moveTo(x, 2); ctx.lineTo(x - 4, 10); ctx.lineTo(x + 4, 10);
      ctx.closePath(); ctx.fill();
    }
  }
  // Time scale.
  ctx.fillStyle = '#777777';
  const t0 = tOf(p, LEFT), t1 = tOf(p, c.width);
  ctx.fillText((t0 / run.clockHz).toFixed(6) + 's', LEFT, c.height - 2);
  const endLabel = (t1 / run.clockHz).toFixed(6) + 's';
  ctx.fillText(endLabel, c.width - ctx.measureText(endLabel).width - 2, c.height - 2);
}

function hook(p) {
  const c = p.canvas, tip = document.getElementById('tip');
  let dragX = null;
  c.addEventListener('mousedown', ev => { dragX = ev.clientX; });
  window.addEventListener('mouseup', () => { dragX = null; });
  c.addEventListener('dblclick', () => { v0 = 0; v1 = 1; draw(); });
  c.addEventListener('wheel', ev => {
    ev.preventDefault();
    const frac = (ev.offsetX - LEFT) / (c.width - LEFT);
    const at = v0 + frac * (v1 - v0);
    const k = ev.deltaY < 0 ? 0.8 : 1.25;
    v0 = at - (at - v0) * k;
    v1 = at + (v1 - at) * k;
    draw();
  }, { passive: false });
  c.addEventListener('mousemove', ev => {
    if (dragX !== null) {
      const dn = (ev.clientX - dragX) / (c.width - LEFT) * (v1 - v0);
      v0 -= dn; v1 -= dn; dragX = ev.clientX;
      draw();
      return;
    }
    const run = p.run;
    const cpu = Math.floor((ev.offsetY - 14) / ROW);
    const t = tOf(p, ev.offsetX);
    if (cpu < 0 || cpu >= run.cpus.length || t < run.start || t > run.end) {
      tip.style.visibility = 'hidden';
      return;
    }
    let hit = null;
    for (const s of run.cpus[cpu]) { if (t >= s.f && t < s.t) { hit = s; break; } }
    if (!hit) { tip.style.visibility = 'hidden'; return; }
    const name = run.procs[String(hit.p)] || ('pid' + hit.p);
    tip.textContent = (t / run.clockHz).toFixed(6) + 's cpu' + cpu + ' ' +
      run.modeNames[hit.m] + ' ' + name +
      ' [' + ((hit.t - hit.f) / run.clockHz * 1e6).toFixed(1) + 'us]';
    tip.style.left = (ev.clientX + 12) + 'px';
    tip.style.top = (ev.clientY + 12) + 'px';
    tip.style.visibility = 'visible';
  });
  c.addEventListener('mouseleave', () => { tip.style.visibility = 'hidden'; });
}

legend();
build();
draw();
window.addEventListener('resize', draw);
</script>
</body>
</html>
`
