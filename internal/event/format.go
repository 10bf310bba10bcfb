package event

import (
	"fmt"
	"strconv"
	"strings"
)

// op is what one step of a compiled display string does with its token.
type op uint8

const (
	opNone op = iota // literal text only
	opStr            // copy the packed string
	opUint           // strconv.AppendUint in base, padded to width
	opFmt            // fmt.Appendf with verb: a flag or verb nothing in-tree registers
)

// seg is one step of a compiled display string: literal text, then at most
// one token reference whose C spec was translated when the Desc was
// registered.
type seg struct {
	lit   string
	op    op
	tok   int    // index into Desc.Tokens
	base  int    // opUint: 10 or 16
	width int    // opUint: minimum width
	pad   byte   // opUint: '0' or ' '
	verb  string // opFmt: the Go format, e.g. "%-8d", "%c", "0x%x"
}

// compile translates a display string into its program. "%%" is a literal
// percent and a '%' that starts no "%N[" is copied through; a reference
// past the token list renders as "<?N>" rather than failing, since a
// listing tool must keep going on imperfect data; an unterminated "%N["
// is copied to the end of the string. The program always ends in a
// literal-only step, so a compiled Desc has a non-empty one.
func compile(f string, toks []Token) []seg {
	var prog []seg
	var lit []byte
	for i := 0; i < len(f); {
		c := f[i]
		if c != '%' {
			lit = append(lit, c)
			i++
			continue
		}
		if i+1 < len(f) && f[i+1] == '%' {
			lit = append(lit, '%')
			i += 2
			continue
		}
		j := i + 1
		for j < len(f) && f[j] >= '0' && f[j] <= '9' {
			j++
		}
		if j == i+1 || j >= len(f) || f[j] != '[' {
			lit = append(lit, '%')
			i++
			continue
		}
		n, _ := strconv.Atoi(f[i+1 : j])
		end := strings.IndexByte(f[j:], ']')
		if end < 0 {
			lit = append(lit, f[i:]...)
			break
		}
		spec := f[j+1 : j+end]
		i = j + end + 1
		if n >= len(toks) {
			lit = append(lit, "<?"+strconv.Itoa(n)+">"...)
			continue
		}
		s := compileSpec(spec, toks[n] == TStr)
		if s.op == opNone {
			lit = append(lit, s.lit...)
			continue
		}
		s.lit, s.tok = string(lit), n
		prog, lit = append(prog, s), lit[:0]
	}
	return append(prog, seg{lit: string(lit)})
}

// compileSpec translates one C-style printf spec. The specs seen in K42
// sources are %llx, %lld, %llu, %lx, %ld, %x, %d, %u, %s, %c plus
// width/zero-pad modifiers. A payload word is unsigned whatever the spec
// says, a string token prints as a string under any verb, and an integer
// logged where %s is expected prints in decimal. A spec that does not start
// with '%' is literal text (returned as an opNone step).
func compileSpec(spec string, isStr bool) seg {
	if spec == "" {
		spec = "%lld"
	}
	if spec[0] != '%' {
		return seg{lit: spec}
	}
	body := spec[1:]
	// Split off the flag/width prefix (digits, '-', '0', '#', '+', '.').
	k := 0
	for k < len(body) && (strings.IndexByte("-#+.", body[k]) >= 0 || body[k] >= '0' && body[k] <= '9') {
		k++
	}
	// Strip C length modifiers.
	prefix, verb := body[:k], strings.TrimLeft(body[k:], "lhzjt")
	goVerb := "d" // %d, %i, %u, an integer where %s is expected, anything unknown
	switch {
	case isStr:
		goVerb = "s"
	case verb == "":
	case strings.IndexByte("xXob", verb[0]) >= 0:
		goVerb = verb[:1]
	case verb[0] == 'c':
		return seg{op: opFmt, verb: "%c"}
	case verb[0] == 'p':
		return seg{op: opFmt, verb: "0x%x"}
	}
	// Hand-rolled: a bare %s, and %d / %x with at most a width of up to
	// three digits, zero-padded when the first is '0'. The rest is fmt's.
	plain := len(prefix) <= 3 && strings.Trim(prefix, "0123456789") == ""
	switch {
	case goVerb == "s" && prefix == "":
		return seg{op: opStr}
	case plain && (goVerb == "d" || goVerb == "x"):
		s := seg{op: opUint, base: 10, pad: ' '}
		s.width, _ = strconv.Atoi(prefix)
		if goVerb == "x" {
			s.base = 16
		}
		if strings.HasPrefix(prefix, "0") {
			s.pad = '0'
		}
		return s
	}
	return seg{op: opFmt, verb: "%" + prefix + goVerb}
}

// AppendText appends the rendering of a payload according to the display
// string and returns the extended buffer; a payload the token list cannot
// decode renders as "undecodable payload". Rendering any in-tree event
// into a buffer with room allocates nothing: the display string was
// compiled when the Desc was registered, token values go through a stack
// array, and strings are copied from the payload words.
func (d *Desc) AppendText(dst []byte, data []uint64) []byte {
	var stack [8]field
	fs, err := walk(stack[:0], d.Tokens, data)
	if err != nil {
		return fmt.Appendf(dst, "undecodable payload (%v), raw % x", err, data)
	}
	prog := d.prog
	if prog == nil { // a Desc built by hand, not by Register
		prog = compile(d.Format, d.Tokens)
	}
	for i := range prog {
		s := &prog[i]
		dst = append(dst, s.lit...)
		if s.op == opNone {
			continue
		}
		f := fs[s.tok]
		switch s.op {
		case opStr:
			dst = appendPacked(dst, data[f.v:], f.n)
		case opUint:
			var num [20]byte
			digits := strconv.AppendUint(num[:0], f.v, s.base)
			for n := len(digits); n < s.width; n++ {
				dst = append(dst, s.pad)
			}
			dst = append(dst, digits...)
		case opFmt:
			var arg any = f.v
			if f.n >= 0 {
				arg, _ = UnpackString(data[f.v:])
			} else if s.verb == "%c" {
				arg = rune(f.v)
			}
			dst = fmt.Appendf(dst, s.verb, arg)
		}
	}
	return dst
}

// Describe renders a full one-line description of a decoded event using the
// registry: the event's symbolic name and its formatted payload. Events
// with no registered description render generically, as K42's tools do for
// unknown or garbled events.
func Describe(r *Registry, e *Event) (name, text string) {
	d := r.Lookup(e.Major(), e.Minor())
	if d == nil {
		return fmt.Sprintf("TRC_%v_%d", e.Major(), e.Minor()),
			fmt.Sprintf("unregistered event, %d data words % x", len(e.Data), e.Data)
	}
	return d.Name, string(d.AppendText(nil, e.Data))
}
