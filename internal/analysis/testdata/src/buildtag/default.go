//go:build !fixture_off

// Package buildtag is a loader test fixture: two files declare the same
// function under mutually exclusive build constraints, so type-checking
// both at once would report a redeclaration. TestLoaderHonorsBuildConstraints
// asserts that only this default variant is loaded.
package buildtag

// Hit reports whether the default variant was compiled.
func Hit() bool { return true }
