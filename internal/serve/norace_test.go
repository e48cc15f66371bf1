//go:build !race

package serve

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of the buffers put back, so pooled allocation counts vary.
const raceEnabled = false
