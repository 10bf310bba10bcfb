package event

import (
	"fmt"
	"strings"
)

// Token describes one field of an event payload in the self-describing
// format string. K42's eventParse structure used space-separated tokens
// "8", "16", "32", "64", or "str"; this is the typed equivalent.
type Token uint8

const (
	// T8, T16, T32, T64 are unsigned integer fields of the given width.
	// Consecutive sub-64-bit fields are packed into shared 64-bit words,
	// LSB first, starting a fresh word when the next field does not fit —
	// the deterministic equivalent of K42's packing macros.
	T8 Token = iota
	T16
	T32
	T64
	// TStr is a NUL-terminated string padded to a 64-bit boundary. A string
	// always starts on a fresh word.
	TStr
)

// Bits returns the width of an integer token, or 0 for TStr.
func (t Token) Bits() int {
	switch t {
	case T8:
		return 8
	case T16:
		return 16
	case T32:
		return 32
	case T64:
		return 64
	}
	return 0
}

func (t Token) String() string {
	if t == TStr {
		return "str"
	}
	return fmt.Sprintf("%d", t.Bits())
}

// ParseTokens parses a K42-style token string such as "64 64 str 32 32"
// into a token list. An empty string yields an empty list (an event with
// no payload).
func ParseTokens(s string) ([]Token, error) {
	fields := strings.Fields(s)
	toks := make([]Token, 0, len(fields))
	for _, f := range fields {
		switch f {
		case "8":
			toks = append(toks, T8)
		case "16":
			toks = append(toks, T16)
		case "32":
			toks = append(toks, T32)
		case "64":
			toks = append(toks, T64)
		case "str":
			toks = append(toks, TStr)
		default:
			return nil, fmt.Errorf("event: unknown token %q in format %q", f, s)
		}
	}
	return toks, nil
}

// tokenString renders a token list back into the "64 64 str" form.
func tokenString(toks []Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// Value is one decoded payload field: either an integer (Str empty) or a
// string (for TStr tokens).
type Value struct {
	Int   uint64
	Str   string
	IsStr bool
}

// Pack encodes the given values according to the token list into 64-bit
// payload words. Integer values are masked to their token width. It returns
// an error if the value kinds do not match the tokens or if the result
// would exceed MaxPayloadWords.
func Pack(toks []Token, vals []Value) ([]uint64, error) {
	if len(toks) != len(vals) {
		return nil, fmt.Errorf("event: %d tokens but %d values", len(toks), len(vals))
	}
	var words []uint64
	var cur uint64
	bit := 0 // next free bit in cur; 0 means cur is empty
	flush := func() {
		if bit > 0 {
			words = append(words, cur)
			cur, bit = 0, 0
		}
	}
	for i, t := range toks {
		v := vals[i]
		if t == TStr {
			if !v.IsStr {
				return nil, fmt.Errorf("event: token %d is str but value is integer", i)
			}
			flush()
			words = append(words, packString(v.Str)...)
			continue
		}
		if v.IsStr {
			return nil, fmt.Errorf("event: token %d is %v but value is string", i, t)
		}
		w := t.Bits()
		if bit+w > 64 {
			flush()
		}
		var mask uint64 = ^uint64(0)
		if w < 64 {
			mask = 1<<uint(w) - 1
		}
		cur |= (v.Int & mask) << uint(bit)
		bit += w
		if bit == 64 {
			flush()
		}
	}
	flush()
	if len(words) > MaxPayloadWords {
		return nil, fmt.Errorf("event: payload of %d words exceeds max %d", len(words), MaxPayloadWords)
	}
	return words, nil
}

// packString encodes a NUL-terminated string padded to a word boundary.
// An embedded NUL terminates the string early on decode; callers should not
// log strings containing NUL.
func packString(s string) []uint64 {
	b := append([]byte(s), 0)
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	words := make([]uint64, len(b)/8)
	for i := range words {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(b[i*8+j]) << uint(8*j)
		}
		words[i] = w
	}
	return words
}

// field locates one token's value in a payload: an integer v, or (n >= 0)
// a packed string of n bytes that starts at word v.
type field struct {
	v uint64
	n int
}

// walk is the one pass over a payload's layout, appending one field per
// token to dst; Unpack turns the fields into Values, Desc.AppendText
// renders them in place. Extra trailing words are ignored (events may
// carry more data than the registered description, e.g. versioned events);
// missing words are an error.
func walk(dst []field, toks []Token, words []uint64) ([]field, error) {
	wi := 0   // current word index
	bit := 64 // next bit to consume in words[wi-1]; 64 forces a new word
	for i, t := range toks {
		if t == TStr {
			n := stringLen(words[wi:])
			if n < 0 {
				return nil, fmt.Errorf("event: token %d: unterminated string in payload", i)
			}
			dst = append(dst, field{v: uint64(wi), n: n})
			wi += n/8 + 1
			bit = 64
			continue
		}
		w := t.Bits()
		if bit+w > 64 {
			if wi >= len(words) {
				return nil, fmt.Errorf("event: payload too short for token %d (%v)", i, t)
			}
			wi++
			bit = 0
		}
		var mask uint64 = ^uint64(0)
		if w < 64 {
			mask = 1<<uint(w) - 1
		}
		dst = append(dst, field{v: (words[wi-1] >> uint(bit)) & mask, n: -1})
		bit += w
	}
	return dst, nil
}

// Unpack decodes payload words according to the token list. It is the
// inverse of Pack.
func Unpack(toks []Token, words []uint64) ([]Value, error) {
	fs, err := walk(make([]field, 0, len(toks)), toks, words)
	if err != nil {
		return nil, err
	}
	vals := make([]Value, len(fs))
	for i, f := range fs {
		if f.n < 0 {
			vals[i].Int = f.v
		} else {
			vals[i].Str, vals[i].IsStr = UnpackString(words[f.v:])
		}
	}
	return vals, nil
}

// stringLen returns the byte length of the NUL-terminated string packed
// LSB first at the start of words, or -1 if no word holds a terminator.
func stringLen(words []uint64) int {
	for i, w := range words {
		for j := 0; j < 8; j++ {
			if byte(w>>uint(8*j)) == 0 {
				return 8*i + j
			}
		}
	}
	return -1
}

// appendPacked appends the first n bytes packed in words to dst.
func appendPacked(dst []byte, words []uint64, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, byte(words[i/8]>>uint(8*(i%8))))
	}
	return dst
}

// UnpackString decodes the NUL-terminated, word-packed string at the start
// of words (a TStr token's encoding), finding the terminator before it
// allocates so that the string is the only allocation. ok is false when
// the string is unterminated.
func UnpackString(words []uint64) (s string, ok bool) {
	n := stringLen(words)
	if n < 0 {
		return "", false
	}
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(byte(words[i/8] >> uint(8*(i%8))))
	}
	return b.String(), true
}

// wordsFor returns the number of payload words Pack would produce for the
// token list, assuming strings of the given byte lengths (one entry per
// TStr token, in order). It lets log sites size fixed-shape events without
// packing twice.
func wordsFor(toks []Token, strLens ...int) int {
	n := 0
	bit := 0
	si := 0
	for _, t := range toks {
		if t == TStr {
			if bit > 0 {
				n++
				bit = 0
			}
			l := 0
			if si < len(strLens) {
				l = strLens[si]
			}
			si++
			n += (l + 1 + 7) / 8 // bytes + NUL, rounded up to words
			continue
		}
		w := t.Bits()
		if bit+w > 64 {
			n++
			bit = 0
		}
		bit += w
		if bit == 64 {
			n++
			bit = 0
		}
	}
	if bit > 0 {
		n++
	}
	return n
}
