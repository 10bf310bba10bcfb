package flagset

import (
	"bytes"
	"flag"
	"strconv"
	"strings"
	"testing"
	"time"
)

func newSet() (*flag.FlagSet, *bytes.Buffer) {
	var out bytes.Buffer
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(&out)
	return fs, &out
}

// panics returns what fn panicked with, or nil.
func panics(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// TestParseWantsEveryNumberToSayWhatItTakes: a numeric or duration flag
// declared the flag package's own way panics at Parse, naming it; string
// and bool flags need no domain.
func TestParseWantsEveryNumberToSayWhatItTakes(t *testing.T) {
	for kind, declare := range map[string]func(fs *flag.FlagSet){
		"int":      func(fs *flag.FlagSet) { fs.Int("x", 0, "") },
		"int64":    func(fs *flag.FlagSet) { fs.Int64("x", 0, "") },
		"uint":     func(fs *flag.FlagSet) { fs.Uint("x", 0, "") },
		"uint64":   func(fs *flag.FlagSet) { fs.Uint64("x", 0, "") },
		"float64":  func(fs *flag.FlagSet) { fs.Float64("x", 0, "") },
		"duration": func(fs *flag.FlagSet) { fs.Duration("x", 0, "") },
	} {
		fs, _ := newSet()
		New(fs, "n", 1, "", Min(1))
		declare(fs)
		if p := panics(func() { Parse(fs, nil) }); p != "flagset: -x declares no domain" {
			t.Errorf("%s flag without a domain: Parse panicked with %v", kind, p)
		}
	}
	fs, out := newSet()
	fs.String("s", "", "")
	fs.Bool("b", false, "")
	if code, ok := Parse(fs, []string{"-s", "x", "-b"}); !ok {
		t.Fatalf("exit %d: %s", code, out)
	}
}

func TestDefaultOutsideItsDomainPanics(t *testing.T) {
	fs, _ := newSet()
	p := panics(func() { New(fs, "n", 0, "", Min(1)) })
	if p != "flagset: -n defaults to 0: want >= 1" {
		t.Errorf("panicked with %v", p)
	}
	if fs.Lookup("n") != nil {
		t.Error("the flag was declared anyway")
	}
}

// TestRefusal: a value outside the domain is refused when the flag is set,
// with the flag named, so an -h after it is never reached; a value inside
// it, a sentinel included, is stored.
func TestRefusal(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // the refusal; "" for none
	}{
		{[]string{"-n=0", "-h"}, `invalid value "0" for flag -n: want >= 1`},
		{[]string{"-n", "x"}, `invalid value "x" for flag -n: parse error`},
		{[]string{"-n", "99999999999999999999"}, `invalid value "99999999999999999999" for flag -n: value out of range`},
		{[]string{"-cpu", "-2"}, `invalid value "-2" for flag -cpu: want -1 or >= 0`},
		{[]string{"-p", "NaN"}, `invalid value "NaN" for flag -p: want in [0, 1]`},
		{[]string{"-every", "0"}, `invalid value "0" for flag -every: want > 0s`},
		{[]string{"-mode", "fast"}, `invalid value "fast" for flag -mode: want one of on, off`},
		{[]string{"-hex", "0xg"}, `invalid value "0xg" for flag -hex: strconv.ParseUint: parsing "g": invalid syntax`},
		{[]string{"-n", "2", "-cpu", "-1", "-p", "0.5", "-every", "1ms", "-mode", "off", "-hex", "0x1f"}, ""},
	} {
		fs, out := newSet()
		n := New(fs, "n", 1, "", Min(1))
		cpu := New(fs, "cpu", -1, "", Min(0).Or(-1))
		p := New(fs, "p", 0.0, "", In(0.0, 1.0))
		every := New(fs, "every", time.Second, "", Over[time.Duration](0))
		mode := New(fs, "mode", "on", "", OneOf("on", "off"))
		hex := New(fs, "hex", "0x0", "", Parses("a hex number", func(s string) (uint64, error) {
			return strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
		}))
		code, ok := Parse(fs, c.args)
		refusal, _, _ := strings.Cut(out.String(), "\n")
		switch {
		case c.want == "" && !ok:
			t.Errorf("%q: exit %d: %s", c.args, code, out)
		case c.want == "" && (*n != 2 || *cpu != -1 || *p != 0.5 || *every != time.Millisecond || *mode != "off" || *hex != "0x1f"):
			t.Errorf("%q stored %v %v %v %v %v %v", c.args, *n, *cpu, *p, *every, *mode, *hex)
		case c.want != "" && (ok || code != 2 || refusal != c.want):
			t.Errorf("%q: exit %d, %q; want 2, %s", c.args, code, refusal, c.want)
		case c.want != "" && (*n != 1 || *cpu != -1 || *mode != "on"):
			t.Errorf("%q: a refused value was stored: %v %v %v", c.args, *n, *cpu, *mode)
		}
	}
}

// TestHelpNamesTypeDomainAndDefault: -h keeps the flag package's type names
// and defaults, and adds each domain.
func TestHelpNamesTypeDomainAndDefault(t *testing.T) {
	fs, out := newSet()
	New(fs, "n", 3, "count", Min(1))
	New(fs, "big", int64(0), "bytes", Min[int64](0))
	New(fs, "seed", uint64(0), "seed", Any[uint64]())
	New(fs, "p", 0.0, "rate", In(0.0, 1.0))
	New(fs, "every", time.Second, "period", Over[time.Duration](0))
	New(fs, "mode", "on", "mode", OneOf("on", "off"))
	if code, ok := Parse(fs, []string{"-h"}); ok || code != 0 {
		t.Fatalf("-h: exit %d, ok %v", code, ok)
	}
	for _, want := range []string{
		"  -n int\n    \tcount (int, >= 1) (default 3)\n",
		"  -big int\n    \tbytes (int, >= 0)\n",
		"  -seed uint\n    \tseed (uint)\n",
		"  -p float\n    \trate (float, in [0, 1])\n",
		"  -every duration\n    \tperiod (duration, > 0s) (default 1s)\n",
		"  -mode string\n    \tmode (string, one of on, off) (default on)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("usage lacks %q:\n%s", want, out)
		}
	}
}
