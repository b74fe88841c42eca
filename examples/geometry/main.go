// Geometry tour: the library as a standalone computational-geometry
// toolkit, independent of any protocol run.
//
// Walks through the objects the paper's analysis is built from:
// convex hull membership and distances in several norms, the adversary-
// safe region Gamma(S) and its support points, Tverberg partitions, the
// relaxation radius delta* with its Table 1 bounds, and an SVG rendering
// of the 2-D picture.
package main

import (
	"fmt"
	"log"
	"os"

	"relaxedbvc"
	"relaxedbvc/internal/geom"
	"relaxedbvc/internal/relax"
	"relaxedbvc/internal/viz"
)

func main() {
	// Five sensor readings in the plane; suppose any one may be faulty.
	pts := []relaxedbvc.Vector{
		relaxedbvc.NewVector(0, 0),
		relaxedbvc.NewVector(4, 0),
		relaxedbvc.NewVector(4, 3),
		relaxedbvc.NewVector(0, 3),
		relaxedbvc.NewVector(2, 1.5),
	}
	s := relaxedbvc.NewPointSet(pts...)

	fmt.Println("-- hulls and distances --")
	q := relaxedbvc.NewVector(5, 4)
	fmt.Printf("q = %v in hull: %v\n", q, relaxedbvc.InHull(q, s))
	for _, p := range []float64{1, 2, relaxedbvc.LInf} {
		d, nearest := relaxedbvc.DistToHull(q, s, p)
		fmt.Printf("  L%-3v distance %.4f (nearest %v)\n", p, d, nearest)
	}

	fmt.Println("\n-- Gamma(S): the f-safe region --")
	g, ok := relaxedbvc.GammaPoint(s, 1)
	fmt.Printf("Gamma point (f=1): %v (nonempty=%v)\n", g, ok)
	fam := relax.DroppedSubsets(s, 1)
	dirs := []relaxedbvc.Vector{
		relaxedbvc.NewVector(1, 0), relaxedbvc.NewVector(-1, 0),
		relaxedbvc.NewVector(0, 1), relaxedbvc.NewVector(0, -1),
	}
	for i, sp := range relax.SupportPoints(fam, dirs) {
		fmt.Printf("  support in %v: %v\n", dirs[i], sp)
	}

	fmt.Println("\n-- Tverberg partition --")
	blocks, point, ok := relaxedbvc.TverbergPartition(s, 1)
	fmt.Printf("partition %v with common point %v (found=%v)\n", blocks, point, ok)

	fmt.Println("\n-- delta* and its bounds --")
	// Drop to n = d+1 = 3 points, where Gamma is empty and delta* > 0.
	tri := relaxedbvc.NewPointSet(pts[0], pts[1], pts[3])
	for _, p := range []float64{1, 2, relaxedbvc.LInf} {
		dstar, at, err := relaxedbvc.ComputeDeltaStar(tri, 1, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  delta*_%-3v = %.4f at %v\n", p, dstar, at)
	}
	d2, center, err := relaxedbvc.ComputeDeltaStar(tri, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 9 bound (any faulty): %.4f > delta*_2 = %.4f\n",
		relaxedbvc.Theorem9Bound(relaxedbvc.NewPointSet(pts[0], pts[1]), 3), d2)

	// Render the triangle scene.
	f, err := os.Create("geometry.svg")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	err = viz.RenderConsensus(f, viz.ConsensusScene{
		HonestInputs: tri.Points(),
		Output:       center,
		Delta:        d2,
		Title:        "delta* disk = inscribed circle (Lemma 13)",
	}, 480, 480)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote geometry.svg (the delta* disk is the inscribed circle)")
	fmt.Printf("2-D hull vertices: %v\n", geom.Hull2D(tri.Points()))
}
