//go:build race

package relax

func init() { *refereeSeeds = 20 }
