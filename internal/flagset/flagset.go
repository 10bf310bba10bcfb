// Package flagset declares each command-line flag with the values it
// accepts. A value outside its flag's domain is refused as the flag set
// parses it — exit 2 with a line naming the flag, before -h and before the
// command opens anything — so no value stands in silently for a default.
// -h shows each flag's type, domain and default.
package flagset

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"
)

// A Domain is the values a flag of type T accepts: what -h and a refusal
// say about them, and the check.
type Domain[T comparable] struct {
	says  string
	check func(T) error
}

// errOutside is Where's refusal; Set words it from the domain.
var errOutside = errors.New("outside the domain")

// Where accepts the values ok holds for.
func Where[T comparable](says string, ok func(T) bool) Domain[T] {
	return Domain[T]{says, func(v T) error {
		if !ok(v) {
			return errOutside
		}
		return nil
	}}
}

// Parses accepts the strings parse reads; its error is the refusal.
func Parses[X any](says string, parse func(string) (X, error)) Domain[string] {
	return Domain[string]{says, func(s string) error {
		_, err := parse(s)
		return err
	}}
}

// Any accepts every value: a seed, or a period where 0 means off.
func Any[T comparable]() Domain[T] { return Domain[T]{"", func(T) error { return nil }} }

// Min accepts lo and above.
func Min[T cmp.Ordered](lo T) Domain[T] {
	return Where(fmt.Sprintf(">= %v", lo), func(v T) bool { return v >= lo })
}

// Over accepts the values above lo.
func Over[T cmp.Ordered](lo T) Domain[T] {
	return Where(fmt.Sprintf("> %v", lo), func(v T) bool { return v > lo })
}

// In accepts lo through hi.
func In[T cmp.Ordered](lo, hi T) Domain[T] {
	return Where(fmt.Sprintf("in [%v, %v]", lo, hi), func(v T) bool { return lo <= v && v <= hi })
}

// OneOf accepts the choices.
func OneOf(choices ...string) Domain[string] {
	return Where("one of "+strings.Join(choices, ", "), func(v string) bool { return slices.Contains(choices, v) })
}

// Or accepts v as well: the sentinel a flag documents as "all" or "off".
func (d Domain[T]) Or(v T) Domain[T] {
	return Domain[T]{fmt.Sprintf("%#v or %s", v, d.says), func(x T) error {
		if x == v {
			return nil
		}
		return d.check(x)
	}}
}

// Var declares the flag name of fs, stored in p, starting at def and
// accepting d. The flag package reads it as it reads its own flags of T.
// A default that the flag would refuse, as -h prints it, panics.
func Var[T int | int64 | uint64 | float64 | time.Duration | string](fs *flag.FlagSet, p *T, name string, def T, usage string, d Domain[T]) {
	*p = def
	read := flag.NewFlagSet(name, flag.ContinueOnError)
	switch p := any(p).(type) {
	case *int:
		read.IntVar(p, name, *p, "")
	case *int64:
		read.Int64Var(p, name, *p, "")
	case *uint64:
		read.Uint64Var(p, name, *p, "")
	case *float64:
		read.Float64Var(p, name, *p, "")
	case *time.Duration:
		read.DurationVar(p, name, *p, "")
	case *string:
		read.StringVar(p, name, *p, "")
	}
	v := &value[T]{p, read.Lookup(name).Value, d}
	if err := v.Set(v.String()); err != nil {
		panic(fmt.Sprintf("flagset: -%s defaults to %v: %v", name, def, err))
	}
	kind, _ := flag.UnquoteUsage(read.Lookup(name)) // back-quoted, it stays the type -h names
	fs.Var(v, name, fmt.Sprintf("%s (`%s`%s)", usage, kind, strings.TrimSuffix(", "+d.says, ", ")))
}

// New is Var into a new variable.
func New[T int | int64 | uint64 | float64 | time.Duration | string](fs *flag.FlagSet, name string, def T, usage string, d Domain[T]) *T {
	p := new(T)
	Var(fs, p, name, def, usage, d)
	return p
}

// Parse parses args into fs. When ok is false the command exits with code:
// 0 after -h, 2 on a usage error. A numeric or duration flag declared
// without a domain panics: every one says what it accepts.
func Parse(fs *flag.FlagSet, args []string) (code int, ok bool) {
	fs.VisitAll(func(f *flag.Flag) {
		if g, ok := f.Value.(flag.Getter); ok {
			switch g.Get().(type) {
			case int, int64, uint, uint64, float64, time.Duration:
				panic(fmt.Sprintf("flagset: -%s declares no domain", f.Name))
			}
		}
	})
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	}
	return 0, true
}

// value is a declared flag: the flag package's own, checked. Its zero value
// (which the flag package makes to tell a default from a zero) prints as
// T's zero.
type value[T comparable] struct {
	p    *T
	read flag.Value // the flag package's, storing into p
	d    Domain[T]
}

func (v *value[T]) String() string {
	if v.p == nil {
		return fmt.Sprint(*new(T))
	}
	return fmt.Sprint(*v.p)
}

func (v *value[T]) Set(s string) error {
	was := *v.p
	err := v.read.Set(s)
	if err == nil {
		err = v.d.check(*v.p)
	}
	if err == errOutside {
		err = errors.New("want " + v.d.says)
	}
	if err != nil {
		*v.p = was
	}
	return err
}
