package event

import (
	"fmt"
	"sort"
	"sync"
)

// Desc is the self-describing record a developer fills in when defining a
// new event — the analogue of K42's eventParse structure. It carries the
// event's symbolic name (the __TR macro made the name usable as both a
// constant and a string), the token string describing the binary payload,
// and a printf-like display format.
//
// The display format references tokens by index: "%N[fmt]" prints token N
// using the C-style format fmt (e.g. "%llx", "%lld", "%s"). Tokens may be
// referenced out of order or not at all. Literal text is copied through.
//
// Example, straight from the paper:
//
//	{__TR(TRACE_MEM_FCMCOM_ATCH_REG), "64 64",
//	    "Region %0[%llx] attach to FCM %1[%llx]"}
type Desc struct {
	Major  Major
	Minor  uint16
	Name   string  // symbolic name, e.g. "TRACE_MEM_FCMCOM_ATCH_REG"
	Tokens []Token // payload layout
	Format string  // printf-like display string with %N[fmt] references

	prog []seg // Format compiled against Tokens; AppendText runs it
}

// Registry maps (major, minor) pairs to event descriptions so that generic
// tools can list and render any event without special knowledge. Lookups
// are read-mostly; registration normally happens at package init time.
type Registry struct {
	mu    sync.RWMutex
	byID  map[uint32]*Desc
	byNam map[string]*Desc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:  make(map[uint32]*Desc),
		byNam: make(map[string]*Desc),
	}
}

func key(major Major, minor uint16) uint32 { return uint32(major)<<16 | uint32(minor) }

// Register adds a description. The token string is in K42's space-separated
// form ("64 64 str"); the display string is compiled here, once, so that
// rendering an event parses nothing. Registering a duplicate (major, minor)
// or name returns an error so clashes between subsystems surface early.
func (r *Registry) Register(major Major, minor uint16, name, tokens, format string) (*Desc, error) {
	if !major.Valid() {
		return nil, fmt.Errorf("event: major %d out of range", major)
	}
	toks, err := ParseTokens(tokens)
	if err != nil {
		return nil, err
	}
	d := &Desc{Major: major, Minor: minor, Name: name, Tokens: toks, Format: format,
		prog: compile(format, toks)}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(major, minor)
	if old, ok := r.byID[k]; ok {
		return nil, fmt.Errorf("event: %v/%d already registered as %s", major, minor, old.Name)
	}
	if _, ok := r.byNam[name]; ok && name != "" {
		return nil, fmt.Errorf("event: name %s already registered", name)
	}
	r.byID[k] = d
	if name != "" {
		r.byNam[name] = d
	}
	return d, nil
}

// MustRegister is Register for init-time use; it panics on error.
func (r *Registry) MustRegister(major Major, minor uint16, name, tokens, format string) *Desc {
	d, err := r.Register(major, minor, name, tokens, format)
	if err != nil {
		panic(err)
	}
	return d
}

// Lookup returns the description for (major, minor), or nil if unknown.
func (r *Registry) Lookup(major Major, minor uint16) *Desc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byID[key(major, minor)]
}

// lookupName returns the description with the given symbolic name, or nil.
func (r *Registry) lookupName(name string) *Desc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byNam[name]
}

// descs returns all registered descriptions ordered by (major, minor).
func (r *Registry) descs() []*Desc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Desc, 0, len(r.byID))
	for _, d := range r.byID {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Major != out[j].Major {
			return out[i].Major < out[j].Major
		}
		return out[i].Minor < out[j].Minor
	})
	return out
}

// Default is the process-wide registry used by the tracing infrastructure,
// the simulated OS, and the tools. Packages register their events into it
// at init time, mirroring K42's single shared event-description table.
var Default = NewRegistry()

// Infrastructure events (MajorControl) are registered here so every tool
// can decode fillers and anchors.
func init() {
	Default.MustRegister(MajorControl, CtrlFiller, "TRACE_CTRL_FILLER", "",
		"filler")
	Default.MustRegister(MajorControl, CtrlClockAnchor, "TRACE_CTRL_CLOCK_ANCHOR", "64",
		"clock anchor full ts %0[%lld]")
	Default.MustRegister(MajorControl, CtrlBufferInfo, "TRACE_CTRL_BUFFER_INFO", "32 32 64",
		"buffer info cpu %0[%d] seq %1[%d] committed %2[%lld]")
	Default.MustRegister(MajorControl, CtrlTimeSync, "TRACE_CTRL_TIME_SYNC", "64 64",
		"time sync raw %0[%lld] wall %1[%lld]ns")
	Default.MustRegister(MajorControl, CtrlMaskChange, "TRACE_CTRL_MASK_CHANGE", "64 64",
		"trace mask now %0[%llx] was %1[%llx]")
}
