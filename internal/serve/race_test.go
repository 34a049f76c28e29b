//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given back, so pooled scratch is allocated again.
const raceEnabled = true
