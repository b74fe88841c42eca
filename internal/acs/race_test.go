//go:build race

package acs

func init() { raceEnabled = true }
