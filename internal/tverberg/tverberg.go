// Package tverberg implements Tverberg partition search and the
// tightness checks of Section 8 of the paper.
//
// Tverberg's theorem (Theorem 7): every multiset of at least (d+1)f + 1
// points in R^d admits a partition into f+1 non-empty parts whose convex
// hulls share a common point. The bound is tight: (d+1)f points in
// general position admit no such partition, and Section 8 observes that
// tightness survives replacing H by the relaxed hulls H_k and
// H_(delta,p).
//
// The search is exhaustive over set partitions (restricted-growth
// enumeration) with an exact LP intersection test per candidate, which is
// exact and fast for the small n used in consensus experiments.
package tverberg

import (
	"relaxedbvc/internal/metrics"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/vec"
)

// scanCandidates counts the candidate partitions handed to the
// intersection test.
var scanCandidates = metrics.DefaultCounter("tverberg_scan_candidates_total")

// Partition searches for a Tverberg partition of y into f+1 non-empty
// blocks with intersecting convex hulls. It returns the block index sets,
// a common point, and ok=false if no partition exists (always when
// f+1 > |y|). It panics if f < 0.
func Partition(y *vec.Set, f int) (blocks [][]int, point vec.V, ok bool) {
	return searchPartition(y, f, relax.Intersector{Kind: relax.HullExact})
}

// PartitionK is Partition with the k-relaxed hulls H_k in place of H
// (the Section 8 variant).
func PartitionK(y *vec.Set, f, k int) (blocks [][]int, point vec.V, ok bool) {
	return searchPartition(y, f, relax.Intersector{Kind: relax.HullKProj, K: k})
}

// PartitionRelaxed is Partition with the (delta,p)-relaxed hulls for
// p in {1, inf}.
func PartitionRelaxed(y *vec.Set, f int, delta, p float64) (blocks [][]int, point vec.V, ok bool) {
	return searchPartition(y, f, relax.Intersector{Kind: relax.HullDeltaP, Delta: delta, P: p})
}

// searchPartition scans the set partitions of {0..n-1} into f+1 blocks
// in restricted-growth order and returns the first candidate whose
// blocks' hulls (of the Intersector's kind) intersect. One scratch and
// one set of block headers serve every candidate: SubsetInto rebuilds
// the headers in place over y's points, which are never copied.
func searchPartition(y *vec.Set, f int, it relax.Intersector) (blocks [][]int, point vec.V, ok bool) {
	if f < 0 {
		panic("tverberg: partition search requires f >= 0")
	}
	if f >= y.Len() {
		return nil, nil, false
	}
	parts := f + 1
	isc := relax.GetIntersectScratch()
	defer isc.Release()
	sets := make([]*vec.Set, parts)
	for b := range sets {
		sets[b] = new(vec.Set)
	}
	vec.Partitions(y.Len(), parts, func(bl [][]int) bool {
		scanCandidates.Inc()
		for b, idxs := range bl {
			y.SubsetInto(idxs, sets[b])
		}
		pt, hit := it.Intersect(sets, isc)
		if !hit {
			return true
		}
		// The enumerator reuses bl; keep a copy of the hit.
		blocks = make([][]int, parts)
		for b, idxs := range bl {
			blocks[b] = append([]int(nil), idxs...)
		}
		point, ok = pt, true
		return false
	})
	return blocks, point, ok
}

// HasPartition reports whether y admits a Tverberg partition into f+1
// parts (exhaustive).
func HasPartition(y *vec.Set, f int) bool {
	_, _, ok := Partition(y, f)
	return ok
}

// Point returns a Tverberg point of y for parameter f: a point common to
// the hulls of some partition into f+1 parts. ok=false if none exists
// (possible only when |y| <= (d+1)f).
func Point(y *vec.Set, f int) (vec.V, bool) {
	_, pt, ok := Partition(y, f)
	return pt, ok
}
