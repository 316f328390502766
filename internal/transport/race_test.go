//go:build race

package transport

// Under the race detector sync.Pool drops a share of its items on purpose
// and the runtime allocates for its own bookkeeping, so allocation counts
// mean nothing there.
func init() { raceDetector = true }
