// Graded meshing: the NUPDR scenario.
//
// Part one meshes an actual pipe cross-section (the paper's NUPDR geometry)
// sequentially with the refinement engine, grading element sizes around the
// inner wall. Part two runs the full out-of-core ONUPDR method — quad-tree
// leaves as mobile objects, a locked refinement-queue object dispatching
// leaves whose buffer zones are free, each with the boundary points its
// finished neighbours fixed — on a simulated 2-node cluster.
package main

import (
	"fmt"
	"log"
	"math"

	"mrts/internal/cluster"
	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/meshgen"
	"mrts/internal/workload"
)

func main() {
	// --- Part 1: sequential graded mesh of a pipe cross-section. ---
	pipe := workload.Pipe(96, 1.0, 0.45, geom.Pt(0, 0))
	m, _, err := delaunay.BuildCDT(pipe)
	if err != nil {
		log.Fatal(err)
	}
	// Fine elements at the inner wall, coarsening outward.
	size := workload.GradedAnnular(geom.Pt(0, 0), 0.45, 0.012, 0.35)
	stats, err := delaunay.Refine(m, delaunay.Options{Size: size})
	if err != nil {
		log.Fatal(err)
	}
	minAngle := math.Pi
	m.ForEachTri(func(id mesh.TriID, _ mesh.Tri) {
		if a := m.Triangle(id).MinAngle(); a < minAngle {
			minAngle = a
		}
	})
	fmt.Printf("pipe cross-section: %d triangles, %d vertices (%d Steiner, %d segment splits)\n",
		m.NumTriangles(), m.NumVertices(), stats.SteinerPoints, stats.SegmentSplits)
	fmt.Printf("quality: min angle %.1f°\n", minAngle*180/math.Pi)
	if err := m.Validate(); err != nil {
		log.Fatal(err)
	}

	// --- Part 2: the parallel out-of-core method (ONUPDR). ---
	spool, cleanup, err := cluster.TempSpoolDir("nupdr-pipe-")
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	cl, err := cluster.New(cluster.Config{
		Nodes:     2,
		MemBudget: 400 << 10,
		SpoolDir:  spool,
		Factory:   meshgen.Factory,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	res, err := meshgen.RunONUPDR(cl, meshgen.NUPDRConfig{
		TargetElements: 60_000,
		Grading:        8, // strong non-uniformity, the NUPDR stress case
		MaxLeafElems:   1500,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	fmt.Printf("quad-tree leaves: %d, conforming: %v, evictions: %d\n",
		res.Subdomains, res.Conforming, res.Mem.Evictions)
	if !res.Conforming {
		log.Fatal("leaf interfaces must conform")
	}
}
