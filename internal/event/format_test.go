package event_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"k42trace/internal/event"
	_ "k42trace/internal/ksim" // its events are most of event.Default
)

var updateFuzzSeeds = flag.Bool("updatefuzzseeds", false,
	"regenerate the checked-in fuzz seed corpus under testdata/fuzz")

// oracleText is the renderer Desc.AppendText replaced, kept as it was: the
// payload unpacked into Values, the display string parsed on every call,
// one fmt.Sprintf a token.
func oracleText(d *event.Desc, words []uint64) string {
	vals, err := event.Unpack(d.Tokens, words)
	if err != nil {
		return fmt.Sprintf("undecodable payload (%v), raw % x", err, words)
	}
	return oracleRender(d.Format, vals)
}

func oracleRender(f string, vals []event.Value) string {
	var b strings.Builder
	for i := 0; i < len(f); {
		c := f[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		// "%%" is a literal percent.
		if i+1 < len(f) && f[i+1] == '%' {
			b.WriteByte('%')
			i += 2
			continue
		}
		// Expect %N[fmt].
		j := i + 1
		for j < len(f) && f[j] >= '0' && f[j] <= '9' {
			j++
		}
		if j == i+1 || j >= len(f) || f[j] != '[' {
			// Not a token reference; copy the '%' through.
			b.WriteByte('%')
			i++
			continue
		}
		n, _ := strconv.Atoi(f[i+1 : j])
		end := strings.IndexByte(f[j:], ']')
		if end < 0 {
			b.WriteString(f[i:])
			break
		}
		spec := f[j+1 : j+end]
		i = j + end + 1
		if n < 0 || n >= len(vals) {
			fmt.Fprintf(&b, "<?%d>", n)
			continue
		}
		b.WriteString(oracleFormatValue(spec, vals[n]))
	}
	return b.String()
}

func oracleFormatValue(spec string, v event.Value) string {
	if spec == "" {
		spec = "%lld"
	}
	if !strings.HasPrefix(spec, "%") {
		return spec // literal; nothing to substitute
	}
	body := spec[1:]
	// Split off flag/width prefix (digits, '-', '0', '#', '+').
	k := 0
	for k < len(body) && (body[k] == '-' || body[k] == '0' || body[k] == '#' ||
		body[k] == '+' || (body[k] >= '0' && body[k] <= '9') || body[k] == '.') {
		k++
	}
	prefix, verb := body[:k], body[k:]
	// Strip C length modifiers.
	verb = strings.TrimLeft(verb, "lhzjt")
	if verb == "" {
		verb = "d"
	}
	if v.IsStr {
		return fmt.Sprintf("%"+prefix+"s", v.Str)
	}
	switch verb[0] {
	case 'x', 'X', 'o', 'b':
		return fmt.Sprintf("%"+prefix+string(verb[0]), v.Int)
	case 'd', 'i', 'u':
		return fmt.Sprintf("%"+prefix+"d", v.Int)
	case 'c':
		return fmt.Sprintf("%c", rune(v.Int))
	case 's':
		return fmt.Sprintf("%"+prefix+"d", v.Int) // int logged where str expected
	case 'p':
		return fmt.Sprintf("0x%x", v.Int)
	default:
		return fmt.Sprintf("%"+prefix+"d", v.Int)
	}
}

// samplePayload packs a payload for toks whose integers have their top bit
// set (a signed rendering would show) and whose strings straddle a word.
func samplePayload(t testing.TB, toks []event.Token) []uint64 {
	t.Helper()
	vals := make([]event.Value, len(toks))
	for i, tok := range toks {
		if tok == event.TStr {
			vals[i] = event.Value{Str: "/shellServer", IsStr: true}
		} else {
			vals[i] = event.Value{Int: 0xfedcba9876543210 + uint64(i)}
		}
	}
	words, err := event.Pack(toks, vals)
	if err != nil {
		t.Fatal(err)
	}
	return words
}

// fuzzSeed is one FuzzAppendText input.
type fuzzSeed struct {
	name, display, tokens string
	payload               []uint64
}

// fuzzSeeds are the renderings that are easy to get wrong, then every Desc
// the tree registers.
func fuzzSeeds(t testing.TB) []fuzzSeed {
	big := []uint64{1 << 63, ^uint64(0), 0x41}
	str := []uint64{7, 0x6c6c6568, 9} // 7, "hell", 9
	seeds := []fuzzSeed{
		{"unsigned", "%0[%lld] %1[%d] %2[%llu]", "64 64 64", big},
		{"hex-widths", "%0[%llx] %1[%08x] %2[%4x] %2[%04d] %2[%12lld]", "64 64 64", big},
		{"fmt-flags", "%0[%-20d]|%1[%+d] %2[%#x] %2[%.5d] %2[%X] %2[%o] %2[%b] %2[%c] %2[%p] %2[%1000d]", "64 64 64", big},
		{"rune-truncation", "%0[%c]%1[%c]%2[%5c]", "64 64 64", []uint64{1<<32 | 'A', 0x10ffff + 1, 'z'}},
		{"packed-ints", "%0[%d] %1[%x] %2[%d] %3[%llx] %4[%d]", "8 16 32 64 8", []uint64{0xaabbccdd11223344, 5, 6}},
		{"string", "%1[%s] of %0[%lld], then %2[%lld]", "64 str 64", str},
		{"string-any-verb", "%1[%llx] %1[%8s] %1[%-8s]| %1[%.2s] %1[%c]", "64 str 64", str},
		{"int-where-string", "%0[%s] %2[%-4s]|", "64 str 64", str},
		{"empty-string", "[%0[%s]]", "str", []uint64{0}},
		{"percent", "100%% of %0[%d]% %", "64", []uint64{3}},
		{"bare-percent", "% %x %1 %12 %[%d] %0(%d)", "64", []uint64{3}},
		{"unterminated", "a %0[%d] b %0[%d", "64", []uint64{3}},
		{"literal-spec", "%0[raw] %0[] %0[%] %0[%l] %0[%5]", "64", []uint64{3}},
		{"out-of-range", "%1[%d] %9[%s] %99999999999999999999[%d] %0[%d]", "64", []uint64{3}},
		{"short-payload", "%0[%d] %1[%d]", "64 64", []uint64{3}},
		{"unterminated-string", "%0[%s]", "str", []uint64{0x6162636465666768}},
		{"extra-words", "%0[%d]", "64", []uint64{1, 2, 3}},
		{"many-tokens", "%11[%d] %0[%d]", strings.Repeat("8 ", 12), []uint64{0x0807060504030201, 0x0c0b0a09}},
		{"no-tokens", "filler", "", nil},
	}
	for _, d := range event.Default.Descs() {
		seeds = append(seeds, fuzzSeed{"desc-" + d.Name, d.Format, event.TokenString(d.Tokens), samplePayload(t, d.Tokens)})
	}
	return seeds
}

func wordBytes(words []uint64) []byte {
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// FuzzAppendText holds the compiled renderer to the one it replaced, over
// display string × token string × payload words: same bytes, appended after
// whatever the buffer already held.
func FuzzAppendText(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s.display, s.tokens, wordBytes(s.payload))
	}
	f.Fuzz(func(t *testing.T, display, tokens string, payload []byte) {
		d, err := event.NewRegistry().Register(event.MajorTest, 1, "T_FUZZ", tokens, display)
		if err != nil {
			t.Skip() // not a token string
		}
		words := make([]uint64, len(payload)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		want := oracleText(d, words)
		if got := string(d.AppendText(nil, words)); got != want {
			t.Fatalf("display %q tokens %q payload %x\n got %q\nwant %q", display, tokens, words, got, want)
		}
		if got := string(d.AppendText([]byte("kept "), words)); got != "kept "+want {
			t.Fatalf("appended after a prefix: got %q, want %q", got, "kept "+want)
		}
	})
}

// TestFuzzSeedCorpus regenerates (with -updatefuzzseeds) or verifies the
// checked-in seed corpus, so the CI fuzz smoke job starts from the tree's
// own display strings rather than from nothing.
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAppendText")
	if !*updateFuzzSeeds {
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) == 0 {
			t.Fatalf("seed corpus missing (run go test -updatefuzzseeds ./internal/event/): %v", err)
		}
		return
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\nstring(%q)\nstring(%q)\n[]byte(%q)\n", s.display, s.tokens, wordBytes(s.payload))
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendTextAllocatesNothing is the point of compiling at registration:
// rendering any event the tree registers, into a buffer with room, makes no
// allocation.
func TestAppendTextAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, d := range event.Default.Descs() {
		words := samplePayload(t, d.Tokens)
		if n := testing.AllocsPerRun(50, func() { buf = d.AppendText(buf[:0], words) }); n != 0 {
			t.Errorf("%s: %v allocations a render of %q", d.Name, n, buf)
		}
		if want := oracleText(d, words); string(buf) != want {
			t.Errorf("%s: rendered %q, want %q", d.Name, buf, want)
		}
	}
}

// TestUnpackStringAllocatesOnce: the terminator is found before the string
// is built, so the string is the only allocation however long it is.
func TestUnpackStringAllocatesOnce(t *testing.T) {
	name := strings.Repeat("FCMComputation::getPage ", 8)
	words, err := event.Pack([]event.Token{event.TStr}, []event.Value{{Str: name, IsStr: true}})
	if err != nil {
		t.Fatal(err)
	}
	var s string
	var ok bool
	if n := testing.AllocsPerRun(50, func() { s, ok = event.UnpackString(words) }); n != 1 {
		t.Errorf("%v allocations a decoded string, want 1", n)
	}
	if !ok || s != name {
		t.Errorf("decoded %q, %v", s, ok)
	}
	if _, ok := event.UnpackString(words[:len(words)-1]); ok {
		t.Error("a string cut before its terminator decoded")
	}
}
