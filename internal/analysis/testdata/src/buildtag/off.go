//go:build fixture_off

package buildtag

// Hit is the tag-gated twin the default configuration must skip.
func Hit() bool { return false }
