//go:build race

package merkle

// raceEnabled reports whether the race detector is instrumenting this
// build; under it sync.Pool drops items at random (and the pooled hash
// scratch with them), so allocation-count assertions only hold without it.
const raceEnabled = true
