//go:build ktrace_off

package ktrace_test

import (
	"testing"

	ktrace "k42trace"
)

func TestCompiledOut(t *testing.T) {
	if ktrace.CompiledIn {
		t.Fatal("-tags ktrace_off builds must have tracing compiled out")
	}
}
