//go:build race

package relax

func init() { *refereeSeeds, raceEnabled = 20, true }
