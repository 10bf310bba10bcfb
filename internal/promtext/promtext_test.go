package promtext

import "testing"

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"mix\\\"\n", `mix\\\"\n`},
		// Non-ASCII must pass through untouched: the exposition format is
		// UTF-8 and forbids the \x escapes Go's %q would emit.
		{"héllo⚡", "héllo⚡"},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
