//go:build !race

package relay

// raceEnabled reports whether the race detector is instrumenting this
// build; see race_test.go.
const raceEnabled = false
