//go:build race

package deadlock_test

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is handed back on purpose, so pooled paths allocate.
const raceEnabled = true
