//go:build race

package geom

func init() { raceEnabled = true }
