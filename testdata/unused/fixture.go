// Package fixture is the module TestUnusedExportedReportsOnlyTheUncalled
// runs the exported-name check over.
package fixture

// Shown is called by the root package's Example.
func Shown() {}

// Unshown has no caller and no Example.
func Unshown() {}
