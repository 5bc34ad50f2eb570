//go:build race

package classify

// raceEnabled reports whether the race detector is active. Allocation-count
// tests are skipped under -race: instrumentation allocates, and sync.Pool
// intentionally drops items to expose races.
const raceEnabled = true
