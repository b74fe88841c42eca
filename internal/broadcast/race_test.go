//go:build race

package broadcast

func init() { raceEnabled = true }
