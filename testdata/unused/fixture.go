// Package fixture is the module TestUnusedExportedReportsOnlyTheUncalled
// runs the exported-name check over.
package fixture
