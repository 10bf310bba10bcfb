package p

import "testing"

func TestUncalled(t *testing.T) {
	if Uncalled(3) != 0 {
		t.Fail()
	}
}
