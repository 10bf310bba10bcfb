package fixture_test

import "fixture/internal/p"

func Example() {
	p.Documented()
}
