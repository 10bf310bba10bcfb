//go:build !ktrace_off

package ktrace_test

import (
	"testing"

	ktrace "k42trace"
)

func TestCompiledInDefault(t *testing.T) {
	if !ktrace.CompiledIn {
		t.Fatal("default builds must have tracing compiled in")
	}
}
