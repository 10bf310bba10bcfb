package event

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHeaderPackUnpack(t *testing.T) {
	cases := []struct {
		ts     uint32
		length int
		major  Major
		minor  uint16
	}{
		{0, 1, MajorControl, 0},
		{1, 2, MajorMem, 7},
		{math.MaxUint32, MaxWords, NumMajors - 1, math.MaxUint16},
		{12345678, 17, MajorLock, 3},
		{0xdeadbeef, 1023, MajorUser, 0xffff},
	}
	for _, c := range cases {
		h := MakeHeader(c.ts, c.length, c.major, c.minor)
		if h.Timestamp() != c.ts {
			t.Errorf("ts: got %d want %d", h.Timestamp(), c.ts)
		}
		if h.Len() != c.length {
			t.Errorf("len: got %d want %d", h.Len(), c.length)
		}
		if h.Major() != c.major {
			t.Errorf("major: got %v want %v", h.Major(), c.major)
		}
		if h.Minor() != c.minor {
			t.Errorf("minor: got %d want %d", h.Minor(), c.minor)
		}
	}
}

// Property: header round-trips for all in-range field values.
func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(ts uint32, length uint16, major uint8, minor uint16) bool {
		l := int(length)%MaxWords + 1
		m := Major(major) & (NumMajors - 1)
		h := MakeHeader(ts, l, m, minor)
		return h.Timestamp() == ts && h.Len() == l && h.Major() == m && h.Minor() == minor
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderFieldsDoNotOverlap(t *testing.T) {
	// Setting one field to all-ones must not perturb the others.
	h := MakeHeader(math.MaxUint32, 0, 0, 0)
	if h.Len() != 0 || h.Major() != 0 || h.Minor() != 0 {
		t.Errorf("timestamp bled into other fields: %v", h)
	}
	h = MakeHeader(0, MaxWords, 0, 0)
	if h.Timestamp() != 0 || h.Major() != 0 || h.Minor() != 0 {
		t.Errorf("length bled into other fields: %v", h)
	}
	h = MakeHeader(0, 0, NumMajors-1, 0)
	if h.Timestamp() != 0 || h.Len() != 0 || h.Minor() != 0 {
		t.Errorf("major bled into other fields: %v", h)
	}
	h = MakeHeader(0, 0, 0, math.MaxUint16)
	if h.Timestamp() != 0 || h.Len() != 0 || h.Major() != 0 {
		t.Errorf("minor bled into other fields: %v", h)
	}
}

func TestHeaderWellFormed(t *testing.T) {
	if Header(0).WellFormed() {
		t.Error("zero header must not be well-formed")
	}
	if !MakeHeader(0, 1, MajorControl, CtrlFiller).WellFormed() {
		t.Error("filler header should be well-formed")
	}
	if !MakeHeader(5, MaxWords, MajorMem, 1).WellFormed() {
		t.Error("max-length header should be well-formed")
	}
}

func TestFillerDetection(t *testing.T) {
	f := MakeHeader(9, 12, MajorControl, CtrlFiller)
	if !f.IsFiller() {
		t.Error("filler not detected")
	}
	n := MakeHeader(9, 12, MajorMem, CtrlFiller)
	if n.IsFiller() {
		t.Error("non-control event misdetected as filler")
	}
	a := MakeHeader(9, 2, MajorControl, CtrlClockAnchor)
	if a.IsFiller() {
		t.Error("clock anchor misdetected as filler")
	}
}

func TestMajorString(t *testing.T) {
	if MajorMem.String() != "MEM" {
		t.Errorf("got %q", MajorMem.String())
	}
	if Major(60).String() != "MAJ60" {
		t.Errorf("got %q", Major(60).String())
	}
}

func TestMajorBit(t *testing.T) {
	seen := map[uint64]bool{}
	for m := Major(0); m < NumMajors; m++ {
		b := m.Bit()
		if b == 0 || b&(b-1) != 0 {
			t.Fatalf("major %d: bit %x not a power of two", m, b)
		}
		if seen[b] {
			t.Fatalf("major %d: duplicate bit %x", m, b)
		}
		seen[b] = true
	}
}

func TestParseTokens(t *testing.T) {
	toks, err := ParseTokens("64 64 str 32 16 8")
	if err != nil {
		t.Fatal(err)
	}
	want := []Token{T64, T64, TStr, T32, T16, T8}
	if len(toks) != len(want) {
		t.Fatalf("got %v want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d: got %v want %v", i, toks[i], want[i])
		}
	}
	if _, err := ParseTokens("64 banana"); err == nil {
		t.Error("expected error on unknown token")
	}
	if toks, err := ParseTokens(""); err != nil || len(toks) != 0 {
		t.Errorf("empty format: got %v, %v", toks, err)
	}
	if got := tokenString(want); got != "64 64 str 32 16 8" {
		t.Errorf("tokenString: got %q", got)
	}
}

func TestPackUnpackIntegers(t *testing.T) {
	toks := []Token{T8, T8, T16, T32, T64, T32, T32}
	vals := []Value{
		{Int: 0xab}, {Int: 0xcd}, {Int: 0x1234}, {Int: 0xdeadbeef},
		{Int: 0x0123456789abcdef}, {Int: 1}, {Int: 2},
	}
	words, err := Pack(toks, vals)
	if err != nil {
		t.Fatal(err)
	}
	// 8+8+16+32 = 64 bits -> word 0; 64 -> word 1; 32+32 -> word 2.
	if len(words) != 3 {
		t.Fatalf("got %d words, want 3: %x", len(words), words)
	}
	got, err := Unpack(toks, words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i].Int != vals[i].Int {
			t.Errorf("field %d: got %x want %x", i, got[i].Int, vals[i].Int)
		}
	}
}

func TestPackStringAlignment(t *testing.T) {
	toks := []Token{T32, TStr, T8}
	vals := []Value{{Int: 7}, {Str: "/shellServer", IsStr: true}, {Int: 3}}
	words, err := Pack(toks, vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(toks, words)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int != 7 || got[1].Str != "/shellServer" || got[2].Int != 3 {
		t.Errorf("round trip failed: %+v", got)
	}
	if n := wordsFor(toks, len("/shellServer")); n != len(words) {
		t.Errorf("wordsFor = %d, Pack produced %d", n, len(words))
	}
}

func TestPackMismatches(t *testing.T) {
	if _, err := Pack([]Token{T64}, nil); err == nil {
		t.Error("want error: token/value count mismatch")
	}
	if _, err := Pack([]Token{TStr}, []Value{{Int: 1}}); err == nil {
		t.Error("want error: int where str expected")
	}
	if _, err := Pack([]Token{T64}, []Value{{Str: "x", IsStr: true}}); err == nil {
		t.Error("want error: str where int expected")
	}
}

func TestUnpackShortPayload(t *testing.T) {
	if _, err := Unpack([]Token{T64, T64}, []uint64{1}); err == nil {
		t.Error("want error on short payload")
	}
	if _, err := Unpack([]Token{TStr}, []uint64{0x6162636465666768}); err == nil {
		t.Error("want error on unterminated string")
	}
}

func TestUnpackIgnoresExtraWords(t *testing.T) {
	vals, err := Unpack([]Token{T64}, []uint64{42, 99, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0].Int != 42 {
		t.Errorf("got %+v", vals)
	}
}

// Property: Pack followed by Unpack recovers masked integer values for an
// arbitrary mix of widths.
func TestPackUnpackQuick(t *testing.T) {
	f := func(raw []uint64, widths []uint8) bool {
		n := len(widths)
		if n > len(raw) {
			n = len(raw)
		}
		if n > 60 {
			n = 60
		}
		toks := make([]Token, n)
		vals := make([]Value, n)
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			toks[i] = Token(widths[i] % 4) // integer tokens only
			vals[i] = Value{Int: raw[i]}
			w := toks[i].Bits()
			if w == 64 {
				want[i] = raw[i]
			} else {
				want[i] = raw[i] & (1<<uint(w) - 1)
			}
		}
		words, err := Pack(toks, vals)
		if err != nil {
			return false
		}
		got, err := Unpack(toks, words)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if got[i].Int != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWordsForEmpty(t *testing.T) {
	if n := wordsFor(nil); n != 0 {
		t.Errorf("empty token list: got %d words", n)
	}
	if n := wordsFor([]Token{T8}); n != 1 {
		t.Errorf("single byte: got %d words, want 1", n)
	}
	if n := wordsFor([]Token{T64, T64}); n != 2 {
		t.Errorf("two words: got %d", n)
	}
}
