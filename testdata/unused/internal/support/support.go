// Package support helps the tests. It is test support: nothing else calls
// it.
package support

// Helper has no caller.
func Helper() {}
