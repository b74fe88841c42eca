package vec

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(Of(0, 0), Of(1, 0), Of(0, 1))
	if s.Len() != 3 || s.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	if !s.At(1).Equal(Of(1, 0)) {
		t.Errorf("At(1) = %v", s.At(1))
	}
	s.Append(Of(2, 2))
	if s.Len() != 4 {
		t.Errorf("Len after Append = %d", s.Len())
	}
}

func TestSetMixedDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed dims did not panic")
		}
	}()
	NewSet(Of(1), Of(1, 2))
}

func TestSetAllowsRepetition(t *testing.T) {
	p := Of(1, 1)
	s := NewSet(p, p, Of(0, 0))
	if s.Len() != 3 {
		t.Errorf("multiset collapsed repeats: Len = %d", s.Len())
	}
}

func TestWithoutAndSubset(t *testing.T) {
	s := NewSet(Of(0), Of(1), Of(2), Of(3))
	w := s.Without(1)
	if w.Len() != 3 || !w.At(1).Equal(Of(2)) {
		t.Errorf("Without = %v", w)
	}
	if s.Len() != 4 {
		t.Error("Without mutated receiver")
	}
	sub := s.Subset([]int{3, 0})
	if sub.Len() != 2 || !sub.At(0).Equal(Of(3)) || !sub.At(1).Equal(Of(0)) {
		t.Errorf("Subset = %v", sub)
	}
}

func TestCloneDeep(t *testing.T) {
	s := NewSet(Of(1, 2))
	c := s.Clone()
	c.At(0)[0] = 42
	if s.At(0)[0] != 1 {
		t.Error("Clone not deep")
	}
}

func TestProjection(t *testing.T) {
	// Paper example: d=4, D={1,3} (1-based) = {0,2} (0-based),
	// u = (7,-4,-2,0)^T, g_D(u) = (7,-2)^T.
	u := Of(7, -4, -2, 0)
	got := Project(u, []int{0, 2})
	if !got.Equal(Of(7, -2)) {
		t.Errorf("Project = %v, want (7, -2)", got)
	}
}

func TestProjectionValidation(t *testing.T) {
	for _, D := range [][]int{{2, 1}, {0, 0}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Project with D=%v did not panic", D)
				}
			}()
			Project(Of(1, 2, 3), D)
		}()
	}
}

func TestSetProject(t *testing.T) {
	s := NewSet(Of(1, 2, 3), Of(4, 5, 6))
	p := s.Project([]int{0, 2})
	if p.Dim() != 2 || !p.At(1).Equal(Of(4, 6)) {
		t.Errorf("Set.Project = %v", p)
	}
}

func TestEdges(t *testing.T) {
	s := NewSet(Of(0, 0), Of(3, 4), Of(0, 1))
	es := s.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges len = %d", len(es))
	}
	if s.MinEdge(2) != 1 {
		t.Errorf("MinEdge = %v", s.MinEdge(2))
	}
	if s.MaxEdge(2) != 5 {
		t.Errorf("MaxEdge = %v", s.MaxEdge(2))
	}
}

func TestEdgeDegenerateSizes(t *testing.T) {
	one := NewSet(Of(1))
	if !math.IsInf(one.MinEdge(2), 1) {
		t.Error("MinEdge of singleton should be +Inf")
	}
	if one.MaxEdge(2) != 0 {
		t.Error("MaxEdge of singleton should be 0")
	}
}

func TestSortedCoordinate(t *testing.T) {
	s := NewSet(Of(3, 9), Of(1, 7), Of(2, 8))
	if got := s.SortedCoordinate(0); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("SortedCoordinate(0) = %v", got)
	}
}

func TestCombinationsCountAndOrder(t *testing.T) {
	var got [][]int
	Combinations(4, 2, func(idx []int) bool {
		got = append(got, append([]int(nil), idx...))
		return true
	})
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Combinations(4,2) = %v", got)
	}
}

func TestCombinationsEarlyStop(t *testing.T) {
	calls := 0
	Combinations(5, 2, func([]int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("early stop calls = %d", calls)
	}
}

func TestCombinationsEdgeCases(t *testing.T) {
	calls := 0
	Combinations(3, 0, func(idx []int) bool {
		calls++
		if len(idx) != 0 {
			t.Errorf("k=0 gave %v", idx)
		}
		return true
	})
	if calls != 1 {
		t.Errorf("k=0 gave %d calls", calls)
	}
	Combinations(2, 5, func([]int) bool {
		t.Error("k>n should not call fn")
		return true
	})
}

func TestIndexSubsetsDroppingF(t *testing.T) {
	count := 0
	IndexSubsetsDroppingF(5, 2, func(keep []int) bool {
		if len(keep) != 3 {
			t.Errorf("keep size %d", len(keep))
		}
		count++
		return true
	})
	if count != countCombinations(5, 3) {
		t.Errorf("count = %d", count)
	}
}

// Bell-style counts for partitions into exactly k parts (Stirling numbers
// of the second kind).
func TestPartitionsCounts(t *testing.T) {
	stirling := map[[2]int]int{
		{4, 1}: 1, {4, 2}: 7, {4, 3}: 6, {4, 4}: 1,
		{5, 2}: 15, {5, 3}: 25, {6, 3}: 90,
	}
	for nk, want := range stirling {
		n, k := nk[0], nk[1]
		count := 0
		Partitions(n, k, func(blocks [][]int) bool {
			total := 0
			for _, b := range blocks {
				if len(b) == 0 {
					t.Errorf("empty block in partition of (%d,%d)", n, k)
				}
				total += len(b)
			}
			if total != n {
				t.Errorf("partition does not cover: %v", blocks)
			}
			count++
			return true
		})
		if count != want {
			t.Errorf("Partitions(%d,%d) count = %d, want %d", n, k, count, want)
		}
	}
}

func TestPartitionsEarlyStop(t *testing.T) {
	calls := 0
	Partitions(5, 2, func([][]int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop calls = %d", calls)
	}
}

func TestPartitionsDegenerate(t *testing.T) {
	Partitions(3, 0, func([][]int) bool { t.Error("parts=0 called fn"); return true })
	Partitions(2, 3, func([][]int) bool { t.Error("parts>n called fn"); return true })
}

func TestCountCombinations(t *testing.T) {
	cases := map[[2]int]int{
		{5, 0}: 1, {5, 5}: 1, {5, 2}: 10, {10, 3}: 120, {4, 7}: 0,
	}
	for nk, want := range cases {
		if got := countCombinations(nk[0], nk[1]); got != want {
			t.Errorf("C(%d,%d) = %d, want %d", nk[0], nk[1], got, want)
		}
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(Of(1), Of(2))
	if got := s.String(); got != "{(1), (2)}" {
		t.Errorf("String = %q", got)
	}
}

func TestCombinationsGrayRevolvingDoor(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for k := 0; k <= n; k++ {
			seen := map[string]bool{}
			var prev []int
			CombinationsGray(n, k, func(idx []int) bool {
				if len(idx) != k {
					t.Fatalf("n=%d k=%d: subset size %d", n, k, len(idx))
				}
				for i := 1; i < k; i++ {
					if idx[i-1] >= idx[i] {
						t.Fatalf("n=%d k=%d: subset not sorted: %v", n, k, idx)
					}
				}
				key := fmt.Sprint(idx)
				if seen[key] {
					t.Fatalf("n=%d k=%d: subset %v visited twice", n, k, idx)
				}
				seen[key] = true
				if prev != nil {
					// Revolving door: exactly one element swapped.
					inPrev := map[int]bool{}
					for _, v := range prev {
						inPrev[v] = true
					}
					diff := 0
					for _, v := range idx {
						if !inPrev[v] {
							diff++
						}
					}
					if diff != 1 {
						t.Fatalf("n=%d k=%d: %v -> %v changes %d elements", n, k, prev, idx, diff)
					}
				}
				prev = append(prev[:0], idx...)
				return true
			})
			if len(seen) != countCombinations(n, k) {
				t.Fatalf("n=%d k=%d: visited %d subsets, want %d", n, k, len(seen), countCombinations(n, k))
			}
		}
	}
}

func TestCombinationsGraySameFamilyAsLex(t *testing.T) {
	for n := 0; n <= 7; n++ {
		for k := 0; k <= n; k++ {
			lex := map[string]bool{}
			Combinations(n, k, func(idx []int) bool {
				lex[fmt.Sprint(idx)] = true
				return true
			})
			CombinationsGray(n, k, func(idx []int) bool {
				if !lex[fmt.Sprint(idx)] {
					t.Fatalf("n=%d k=%d: gray-only subset %v", n, k, idx)
				}
				delete(lex, fmt.Sprint(idx))
				return true
			})
			if len(lex) != 0 {
				t.Fatalf("n=%d k=%d: lex-only subsets %v", n, k, lex)
			}
		}
	}
}

func TestCombinationsGrayEarlyStop(t *testing.T) {
	calls := 0
	CombinationsGray(6, 3, func([]int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop calls = %d", calls)
	}
}

func TestProjScratch(t *testing.T) {
	var ps ProjScratch
	u := Of(1, 2, 3, 4)
	s := NewSet(Of(1, 2, 3, 4), Of(5, 6, 7, 8))
	for _, D := range [][]int{{0, 2}, {1, 3}, {0, 1, 2, 3}} {
		got := ps.ProjectInto(u, D)
		want := Project(u, D)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("ProjectInto(%v) = %v, want %v", D, got, want)
		}
		gs := ps.ProjectSetInto(s, D)
		ws := s.Project(D)
		if gs.Len() != ws.Len() || gs.Dim() != ws.Dim() {
			t.Fatalf("ProjectSetInto(%v) shape mismatch", D)
		}
		for i := 0; i < gs.Len(); i++ {
			if fmt.Sprint(gs.At(i)) != fmt.Sprint(ws.At(i)) {
				t.Errorf("ProjectSetInto(%v) point %d = %v, want %v", D, i, gs.At(i), ws.At(i))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ProjectInto with invalid D did not panic")
		}
	}()
	ps.ProjectInto(u, []int{2, 1})
}

// countCombinations returns C(n, k) for the small sizes the enumeration
// tests count their visits against.
func countCombinations(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}
