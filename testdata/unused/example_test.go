package fixture_test

import (
	"fixture"
	"fixture/internal/p"
)

func Example() {
	p.Documented()
	fixture.Shown()
}
