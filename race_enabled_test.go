//go:build race

package blitzsplit

// raceEnabled reports whether this test binary was built with the race
// detector, whose sync.Pool randomly drops pooled items; allocation-count
// tests of pooled paths widen their bound there (see hitAllocsLimit).
const raceEnabled = true
