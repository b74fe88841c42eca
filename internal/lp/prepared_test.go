package lp

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// objectivesFor draws k objectives of alternating sense for s; the first
// is s's own.
func objectivesFor(rng *rand.Rand, s *lpScript, k int) (objs [][]float64, senses []Sense) {
	objs, senses = append(objs, s.obj), append(senses, s.sense)
	for len(objs) < k {
		obj := make([]float64, s.n)
		for i := range obj {
			if rng.Intn(3) > 0 {
				obj[i] = rng.NormFloat64()
			}
		}
		objs, senses = append(objs, obj), append(senses, Sense(len(objs)%2))
	}
	return objs, senses
}

// checkPreparedMatchesSolve solves k objectives of both senses off one
// prepared basis of s and, for each, by SetObjective + Problem.Solve on
// a fresh build; every result must agree bit for bit. The Problem the
// basis was prepared from keeps s's own sense throughout, so half the
// objectives exercise the Dual sign under a sense it did not hold.
func checkPreparedMatchesSolve(t *testing.T, rng *rand.Rand, s *lpScript, k int) Status {
	t.Helper()
	held := s.problem().Prepare()
	defer held.Release()
	objs, senses := objectivesFor(rng, s, k)
	var status Status
	for i, obj := range objs {
		got := held.Solve(obj, senses[i])
		p := s.problem()
		p.SetObjective(obj, senses[i])
		want, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("%s (%d vars) objective %d (%v): prepared vs one-shot: %s", s.shape, s.n, i, senses[i], d)
		}
		status = want.Status
	}
	return status
}

func TestPreparedMatchesSolve(t *testing.T) {
	total := 600
	if testing.Short() {
		total = 100
	}
	rng := rand.New(rand.NewSource(5))
	seen := map[Status]int{}
	for i := 0; i < total; i++ {
		seen[checkPreparedMatchesSolve(t, rng, genLP(rng, i), 4+i%3)]++
	}
	if seen[Optimal] == 0 || seen[Infeasible] == 0 || seen[Unbounded] == 0 {
		t.Fatalf("outcomes %v: want optimal, infeasible and unbounded all exercised", seen)
	}
}

// TestPreparedPhase1Verdict: when phase 1 finds no feasible basis, or
// runs into the iteration limit, every objective gets that status.
func TestPreparedPhase1Verdict(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]float64{1, 1}, LE, 1)
	p.AddConstraint([]float64{1, 1}, GE, 2)
	for _, verdict := range []Status{Infeasible, IterationLimit} {
		pr := p.Prepare()
		if pr.status != Infeasible {
			t.Fatalf("phase 1 of an empty region: %v", pr.status)
		}
		pr.status = verdict // the limit itself takes an LP beyond test size
		before := lpSolves.Value()
		for i, sense := range []Sense{Minimize, Maximize, Minimize, Maximize} {
			res := pr.Solve([]float64{float64(i), 1}, sense)
			if res.Status != verdict || res.X != nil || res.Dual != nil {
				t.Fatalf("objective %d: %+v, want bare %v", i, res, verdict)
			}
		}
		if got := lpSolves.Value() - before; got != 4 {
			t.Fatalf("lp_solves_total moved by %d over 4 objectives", got)
		}
		pr.Release()
	}
}

// TestPreparedOwnsItsWorkspace: a Prepared keeps answering correctly
// while other problems are solved — and their pooled workspaces recycled
// — on the same goroutine and, concurrently, on another one. Run under
// -race: a workspace handed to two owners is a data race on its arena.
func TestPreparedOwnsItsWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := gammaScript()
	objs, senses := objectivesFor(rng, s, 6)
	want := make([]*Result, len(objs))
	for i, obj := range objs {
		p := s.problem()
		p.SetObjective(obj, senses[i])
		want[i], _ = p.Solve()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		other := rand.New(rand.NewSource(9))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := genLP(other, i).problem()
			q.Solve()
			pr := q.Prepare()
			pr.Solve(q.obj, q.sense)
			pr.Release()
		}
	}()

	held := s.problem().Prepare()
	for round := 0; round < 5; round++ {
		for i, obj := range objs {
			// Same goroutine: one-shot solves and a second Prepared come and
			// go between two objectives of the held one.
			genLP(rng, i).problem().Solve()
			inner := genLP(rng, i+1).problem().Prepare()
			inner.Solve(make([]float64, inner.nvars), Minimize)
			inner.Release()
			if d := diffResults(held.Solve(obj, senses[i]), want[i]); d != "" {
				t.Fatalf("round %d objective %d: %s", round, i, d)
			}
		}
	}
	held.Release()
	close(stop)
	wg.Wait()
}

// TestPreparedUseAfterRelease: Solve on a released Prepared panics
// instead of pivoting on an arena that may belong to another solve;
// releasing twice is harmless.
func TestPreparedUseAfterRelease(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]float64{1}, LE, 1)
	pr := p.Prepare()
	pr.Release()
	pr.Release()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "after Release") {
			t.Fatalf("Solve after Release: recovered %q", msg)
		}
	}()
	pr.Solve([]float64{1}, Maximize)
}

// FuzzPreparedMatchesSolve: any problem of the seeded stream, any
// number of objectives — Prepared.Solve is SetObjective + Solve.
func FuzzPreparedMatchesSolve(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(int64(i), uint16(i*17), uint8(i%5))
	}
	f.Fuzz(func(t *testing.T, seed int64, index uint16, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkPreparedMatchesSolve(t, rng, genLP(rng, int(index)), 1+int(k%8))
	})
}
