//go:build race

package minimax

func init() { raceEnabled = true }
