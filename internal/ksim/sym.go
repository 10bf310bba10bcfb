package ksim

import (
	"strings"
	"sync"
)

// SymID identifies a code symbol (function) in the simulated OS. The PC
// sampler logs SymIDs; post-processing maps them back to names, the
// analogue of mapping sampled pc values to C function names (§4.5).
type SymID uint32

// ChainID identifies a static lock-acquisition call chain. K42 logged the
// call chain leading to contended lock acquisitions; we register chains
// once and log their IDs, keeping the log path cheap.
type ChainID uint32

// SymTable interns symbol names and call chains. It is shared by the
// kernel (which logs IDs) and the analysis tools (which resolve them,
// either from this in-process table or from the SYMDEF/CHAINDEF events
// the kernel emits at trace start).
type SymTable struct {
	mu     sync.Mutex
	syms   []string
	symIdx map[string]SymID
	chains [][]string
	chIdx  map[string]ChainID
}

// NewSymTable returns an empty table; ID 0 is reserved as "unknown".
func NewSymTable() *SymTable {
	st := &SymTable{symIdx: map[string]SymID{}, chIdx: map[string]ChainID{}}
	st.Sym("<unknown>")
	st.Chain("<unknown>")
	return st
}

// Sym interns a symbol name and returns its ID.
func (st *SymTable) Sym(name string) SymID {
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok := st.symIdx[name]; ok {
		return id
	}
	id := SymID(len(st.syms))
	st.syms = append(st.syms, name)
	st.symIdx[name] = id
	return id
}

// symName resolves an ID; unknown IDs return "<unknown>".
func (st *SymTable) symName(id SymID) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if int(id) < len(st.syms) {
		return st.syms[id]
	}
	return st.syms[0]
}

// numSyms returns the number of interned symbols.
func (st *SymTable) numSyms() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.syms)
}

// Chain interns a call chain given innermost-first frames joined by " < ".
func (st *SymTable) Chain(frames ...string) ChainID {
	key := strings.Join(frames, " < ")
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok := st.chIdx[key]; ok {
		return id
	}
	id := ChainID(len(st.chains))
	cp := make([]string, len(frames))
	copy(cp, frames)
	st.chains = append(st.chains, cp)
	st.chIdx[key] = id
	return id
}

// chainFrames resolves a chain ID to its frames, innermost first.
func (st *SymTable) chainFrames(id ChainID) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if int(id) < len(st.chains) {
		return st.chains[id]
	}
	return st.chains[0]
}

// numChains returns the number of interned chains.
func (st *SymTable) numChains() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.chains)
}

// snapshot returns copies of the tables for emission as SYMDEF/CHAINDEF
// events.
func (st *SymTable) snapshot() (syms []string, chains [][]string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.syms...), append([][]string(nil), st.chains...)
}
