package main

import (
	bvc "relaxedbvc"
)

// lcg is the benchmark's only source of randomness: a 64-bit linear
// congruential generator (Knuth's MMIX constants) whose state is
// derived from -seed. The library under test only ever sees the Specs
// generated from it.
type lcg struct{ s uint64 }

// newLCG derives an independent stream from the run seed and a list of
// salts (workload id, chunk index), so chunk i's inputs do not depend
// on how many chunks ran before it and the traced pass can regenerate
// any chunk of the untraced pass bit for bit.
func newLCG(seed uint64, salts ...uint64) *lcg {
	s := mix64(seed)
	for _, x := range salts {
		s = mix64(s ^ x)
	}
	return &lcg{s: s}
}

// mix64 is the splitmix64 finalizer; it only decorrelates the initial
// states of neighbouring seeds, every drawn value comes from the LCG.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s
}

// coord draws one input coordinate, uniform in [-5, 5).
func (l *lcg) coord() float64 {
	return float64(l.next()>>11)/float64(1<<53)*10 - 5
}

// seed63 draws a non-negative seed for a scripted adversary.
func (l *lcg) seed63() int64 { return int64(l.next() >> 1) }

// vectors draws n input vectors of dimension d.
func (l *lcg) vectors(n, d int) []bvc.Vector {
	out := make([]bvc.Vector, n)
	for i := range out {
		v := make([]float64, d)
		for j := range v {
			v[j] = l.coord()
		}
		out[i] = bvc.NewVector(v...)
	}
	return out
}
