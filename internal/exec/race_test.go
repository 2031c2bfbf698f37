//go:build race

package exec

// raceEnabled reports a -race build. Its sync.Pool drops a share of the
// items put back at random, so allocation counts through fmt (which
// pools its printers) vary by a few from run to run.
const raceEnabled = true
