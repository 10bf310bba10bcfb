package event

import (
	"strings"
	"testing"
)

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	d, err := r.Register(MajorMem, 4, "TRACE_MEM_FCMCOM_ATCH_REG", "64 64",
		"Region %0[%llx] attach to FCM %1[%llx]")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Lookup(MajorMem, 4); got != d {
		t.Error("Lookup did not return registered desc")
	}
	if got := r.lookupName("TRACE_MEM_FCMCOM_ATCH_REG"); got != d {
		t.Error("lookupName did not return registered desc")
	}
	if got := r.Lookup(MajorMem, 5); got != nil {
		t.Error("Lookup of unregistered minor should be nil")
	}
	if got := r.Lookup(MajorIO, 4); got != nil {
		t.Error("Lookup of unregistered major should be nil")
	}
}

func TestRegistryDuplicates(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(MajorMem, 1, "A", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(MajorMem, 1, "B", "", ""); err == nil {
		t.Error("duplicate (major,minor) should fail")
	}
	if _, err := r.Register(MajorMem, 2, "A", "", ""); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := r.Register(Major(200), 0, "C", "", ""); err == nil {
		t.Error("out-of-range major should fail")
	}
	if _, err := r.Register(MajorMem, 3, "D", "banana", ""); err == nil {
		t.Error("bad token string should fail")
	}
}

func TestRegistryDescsSorted(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(MajorIO, 2, "E1", "", "")
	r.MustRegister(MajorMem, 9, "E2", "", "")
	r.MustRegister(MajorMem, 1, "E3", "", "")
	ds := r.descs()
	if len(ds) != 3 {
		t.Fatalf("got %d descs", len(ds))
	}
	if ds[0].Name != "E3" || ds[1].Name != "E2" || ds[2].Name != "E1" {
		t.Errorf("order wrong: %s %s %s", ds[0].Name, ds[1].Name, ds[2].Name)
	}
}

func TestDefaultRegistryHasControlEvents(t *testing.T) {
	for _, minor := range []uint16{CtrlFiller, CtrlClockAnchor, CtrlBufferInfo, CtrlTimeSync} {
		if Default.Lookup(MajorControl, minor) == nil {
			t.Errorf("control minor %d not registered in Default", minor)
		}
	}
}

func TestRenderPaperExample(t *testing.T) {
	// The exact example from the paper's self-describing string section.
	r := NewRegistry()
	d := r.MustRegister(MajorMem, 4, "TRACE_MEM_FCMCOM_ATCH_REG", "64 64",
		"Region %0[%llx] attach to FCM %1[%llx]")
	got := render(t, d, Value{Int: 0x800000001022cc98}, Value{Int: 0xe100000000003f30})
	want := "Region 800000001022cc98 attach to FCM e100000000003f30"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestRenderOutOfOrderAndRepeats(t *testing.T) {
	r := NewRegistry()
	d := r.MustRegister(MajorTest, 1, "T_ORDER", "32 32",
		"second %1[%d] first %0[%d] second again %1[%x]")
	got := render(t, d, Value{Int: 10}, Value{Int: 255})
	want := "second 255 first 10 second again ff"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestRenderString(t *testing.T) {
	r := NewRegistry()
	d := r.MustRegister(MajorUser, 7, "T_STR", "64 str",
		"process %0[%lld] name %1[%s]")
	got := render(t, d, Value{Int: 6}, Value{Str: "/shellServer", IsStr: true})
	if got != "process 6 name /shellServer" {
		t.Errorf("got %q", got)
	}
}

func TestRenderEdgeCases(t *testing.T) {
	r := NewRegistry()
	d := r.MustRegister(MajorTest, 2, "T_EDGE", "64", "%% literal %0[%08x] end %9[%d] trailing")
	got := render(t, d, Value{Int: 0xab})
	if !strings.Contains(got, "% literal 000000ab") {
		t.Errorf("literal/zero-pad rendering wrong: %q", got)
	}
	if !strings.Contains(got, "<?9>") {
		t.Errorf("out-of-range reference should render <?9>: %q", got)
	}
	// A bare % that is not a token reference passes through.
	d2 := r.MustRegister(MajorTest, 3, "T_PCT", "", "100% done")
	if got := render(t, d2); got != "100% done" {
		t.Errorf("got %q", got)
	}
	// An unterminated reference is copied to the end of the string, a spec
	// that is not a '%' spec is copied as it stands, and a '%' before
	// digits that no '[' follows is just a '%'.
	d3 := r.MustRegister(MajorTest, 4, "T_RAW", "64", "a %0[raw] b %12 c %0[%d")
	if got := render(t, d3, Value{Int: 7}); got != "a raw b %12 c %0[%d" {
		t.Errorf("got %q", got)
	}
}

// A Desc that Register did not build has no compiled program and still
// renders.
func TestRenderHandBuiltDesc(t *testing.T) {
	d := &Desc{Tokens: []Token{T64}, Format: "v=%0[%llx]"}
	if got := render(t, d, Value{Int: 255}); got != "v=ff" {
		t.Errorf("got %q", got)
	}
}

func TestDescribeUnregistered(t *testing.T) {
	e := &Event{Header: MakeHeader(1, 2, MajorTest, 42), Data: []uint64{0xbeef}}
	name, text := Describe(NewRegistry(), e)
	if name != "TRC_TEST_42" {
		t.Errorf("name %q", name)
	}
	if !strings.Contains(text, "unregistered") {
		t.Errorf("text %q", text)
	}
}

func TestDescribeRegistered(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(MajorSched, 5, "TRACE_SCHED_SWITCH", "64 64",
		"switch from %0[%lld] to %1[%lld]")
	e := &Event{Header: MakeHeader(1, 3, MajorSched, 5), Data: []uint64{3, 9}}
	name, text := Describe(r, e)
	if name != "TRACE_SCHED_SWITCH" {
		t.Errorf("name %q", name)
	}
	if text != "switch from 3 to 9" {
		t.Errorf("text %q", text)
	}
}

func TestDescribeUndecodable(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(MajorSched, 5, "TRACE_SCHED_SWITCH", "64 64", "from %0[%d] to %1[%d]")
	e := &Event{Header: MakeHeader(1, 2, MajorSched, 5), Data: []uint64{3}} // one word short
	_, text := Describe(r, e)
	if !strings.Contains(text, "undecodable") {
		t.Errorf("text %q", text)
	}
}

func TestFormatValueVerbs(t *testing.T) {
	cases := []struct {
		spec string
		v    Value
		want string
	}{
		{"%llx", Value{Int: 255}, "ff"},
		{"%lld", Value{Int: 255}, "255"},
		{"%llu", Value{Int: 255}, "255"},
		{"%d", Value{Int: 7}, "7"},
		{"%x", Value{Int: 16}, "10"},
		{"%s", Value{Str: "hi", IsStr: true}, "hi"},
		{"%c", Value{Int: 'A'}, "A"},
		{"%p", Value{Int: 0x10}, "0x10"},
		{"", Value{Int: 3}, "3"},
		{"%08x", Value{Int: 0xab}, "000000ab"},
		// A payload word is unsigned whatever the spec says.
		{"%lld", Value{Int: 1 << 63}, "9223372036854775808"},
		{"%d", Value{Int: ^uint64(0)}, "18446744073709551615"},
		// Widths: space- and zero-padded by hand, the rest by fmt.
		{"%6d", Value{Int: 42}, "    42"},
		{"%06lld", Value{Int: 42}, "000042"},
		{"%2x", Value{Int: 0xabc}, "abc"},
		{"%-6d", Value{Int: 42}, "42    "},
		{"%+d", Value{Int: 42}, "+42"},
		{"%#x", Value{Int: 255}, "0xff"},
		{"%.4d", Value{Int: 42}, "0042"},
		{"%X", Value{Int: 255}, "FF"},
		{"%o", Value{Int: 8}, "10"},
		{"%5c", Value{Int: 'A'}, "A"},
		{"%c", Value{Int: 1<<32 | 'A'}, "A"},
		// A string under any verb, and an integer where a string is expected.
		{"%llx", Value{Str: "hi", IsStr: true}, "hi"},
		{"%5s", Value{Str: "hi", IsStr: true}, "   hi"},
		{"%-5s", Value{Str: "hi", IsStr: true}, "hi   "},
		{"%.1s", Value{Str: "hi", IsStr: true}, "h"},
		{"%s", Value{Int: 12}, "12"},
		{"%ls", Value{Str: "", IsStr: true}, ""},
	}
	for i, c := range cases {
		tok := "64"
		if c.v.IsStr {
			tok = "str"
		}
		d := NewRegistry().MustRegister(MajorTest, uint16(i), "T", tok, "%0["+c.spec+"]")
		if got := render(t, d, c.v); got != c.want {
			t.Errorf("spec %q of %+v rendered %q, want %q", c.spec, c.v, got, c.want)
		}
	}
}

// render packs vals by d's token list and renders the payload.
func render(t *testing.T, d *Desc, vals ...Value) string {
	t.Helper()
	words, err := Pack(d.Tokens, vals)
	if err != nil {
		t.Fatal(err)
	}
	return string(d.AppendText(nil, words))
}
