// Package p declares one exported name of each kind the check keeps, and
// one it reports.
package p

// Called is called by cmd/fixture.
func Called() string { return describe(Item{}) }

// Uncalled is called only by itself and by a test.
func Uncalled(n int) int {
	if n == 0 {
		return 0
	}
	return Uncalled(n - 1)
}

// Measured is named by a DESIGN.md §3 row.
func Measured() {}

// Documented is called by the root package's Example.
func Documented() {}

type namer interface{ Name() string }

// Item is reached only through namer.
type Item struct{}

// Name implements namer.
func (Item) Name() string { return "item" }

func describe(n namer) string { return n.Name() }
