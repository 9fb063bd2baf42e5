package meshgen

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/meshstore"
	"mrts/internal/sched"
	"mrts/internal/workload"
)

// UPDRConfig configures a uniform parallel Delaunay refinement run over the
// unit square.
type UPDRConfig struct {
	// Blocks is the decomposition grid dimension: Blocks×Blocks subdomains.
	// The paper over-decomposes (N ≫ P).
	Blocks int
	// TargetElements is the approximate total element count.
	TargetElements int
	// PEs is the number of processing elements: the workers of
	// RunUPDR's task pool.
	PEs int
	// QualityBound is the radius-edge bound (0 = default √2).
	QualityBound float64
	// Quality asks for the run's quality report (Result.Quality): every
	// piece is judged as it is meshed, which costs a pass over its elements
	// and its Validate and CheckDelaunay.
	Quality bool
	// Export, when non-nil, frames every block into the meshstore chunk once
	// meshing is done (RunOUPDR only): a pass that reads every block, and so
	// reloads the ones out of core. Without it a run reads nothing back; its
	// MeshHash comes from digests taken as the blocks were meshed. The
	// writer is left open for the caller to Finalize.
	Export *meshstore.Writer
}

func (c *UPDRConfig) defaults() error {
	if c.Blocks <= 0 {
		c.Blocks = 4
	}
	if c.PEs <= 0 {
		c.PEs = 1
	}
	if c.TargetElements <= 0 {
		return fmt.Errorf("meshgen: TargetElements must be positive")
	}
	return nil
}

// blockRect returns block (i,j)'s rectangle in the unit square.
func blockRect(blocks, i, j int) geom.Rect {
	w := 1.0 / float64(blocks)
	return geom.Rect{
		Min: geom.Pt(float64(i)*w, float64(j)*w),
		Max: geom.Pt(float64(i+1)*w, float64(j+1)*w),
	}
}

// gridIJ inverts blockRect: it recovers a block's or subdomain's grid
// position from its rectangle, Min = (i, j)/blocks.
func gridIJ(r geom.Rect, blocks int) (i, j int) {
	return int(math.Round(r.Min.X * float64(blocks))), int(math.Round(r.Min.Y * float64(blocks)))
}

// meshBlock builds and refines one block's mesh: a CDT of the block
// rectangle whose boundary carries deterministically placed points at
// spacing h (the buffer-zone contract with the neighbors), refined to the
// uniform size internally. The caller recycles the mesh when done with it;
// on an error meshBlock does.
func meshBlock(r geom.Rect, h, beta float64) (*blockMesh, error) {
	bpts := boundaryPoints(r, h)
	p := &delaunay.PSLG{Points: bpts}
	for i := range bpts {
		p.Segments = append(p.Segments, [2]int{i, (i + 1) % len(bpts)})
	}
	m, ids, err := delaunay.BuildCDT(p)
	if err != nil {
		return nil, fmt.Errorf("meshgen: block CDT: %w", err)
	}
	maxArea := h * h * math.Sqrt(3) / 4
	// Boundary segments are frozen: the pre-placed spacing-h points are the
	// buffer-zone contract with the neighbors, so the interface needs no
	// further refinement (the UPDR design property).
	if _, err := delaunay.Refine(m, delaunay.Options{
		QualityBound:   beta,
		MaxArea:        maxArea,
		NoSegmentSplit: true,
	}); err != nil {
		m.Recycle()
		return nil, fmt.Errorf("meshgen: block refine: %w", err)
	}
	// The hull, walked from bpts[0], the block's Min corner.
	hull, err := m.HullPoints(ids[0])
	if err != nil {
		m.Recycle()
		return nil, fmt.Errorf("meshgen: block hull: %w", err)
	}
	return &blockMesh{rect: r, mesh: m, hull: hull}, nil
}

type blockMesh struct {
	rect geom.Rect
	mesh *mesh.Mesh
	hull []geom.Point // the mesh's boundary vertices, counter-clockwise
}

// edge returns the block's right (side 0) or top (side 1) edge, the one it
// shares with that neighbour.
func (b *blockMesh) edge(side int) (a, c geom.Point) {
	if side == 0 {
		return geom.Pt(b.rect.Max.X, b.rect.Min.Y), b.rect.Max
	}
	return geom.Pt(b.rect.Min.X, b.rect.Max.Y), b.rect.Max
}

// interfacePoints returns the block's boundary points on the given side
// (0=right edge, 1=top edge), for interface exchange with the neighbor.
func (b *blockMesh) interfacePoints(side int) []geom.Point {
	a, c := b.edge(side)
	return edgePointsOn(b.hull, a, c)
}

// conformsWith reports whether nbr, the block's neighbour across side,
// holds the block's interface points on their shared edge.
func (b *blockMesh) conformsWith(nbr *blockMesh, side int) bool {
	a, c := b.edge(side)
	return samePoints(edgePointsOn(nbr.hull, a, c), b.interfacePoints(side))
}

// RunUPDR executes the in-core uniform method: blocks are meshed in parallel,
// one task each on a pool of PE workers, then every block's right and top
// interface point sets are checked against its neighbours' (the structured
// communication + global synchronization phase of the paper's UPDR).
func RunUPDR(cfg UPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	h := workload.UniformSizeFor(cfg.TargetElements, 1.0)
	nb := cfg.Blocks

	blocks := make([]*blockMesh, nb*nb)
	var elements, vertices atomic.Int64
	var errs firstErr
	q := newQualityIf(cfg.Quality, cfg.QualityBound)
	target := constTarget(h)

	// Phase 1: mesh blocks in parallel.
	pool := sched.NewGlobalQueue(cfg.PEs)
	for j := 0; j < nb; j++ {
		for i := 0; i < nb; i++ {
			pool.Submit(func(*sched.Ctx) {
				bm, err := meshBlock(blockRect(nb, i, j), h, cfg.QualityBound)
				if err != nil {
					errs.set(err)
					return
				}
				elements.Add(int64(bm.mesh.NumTriangles()))
				vertices.Add(int64(bm.mesh.NumVertices()))
				q.Add(bm.mesh, target)
				blocks[j*nb+i] = bm
			})
		}
	}
	pool.Wait()
	pool.Close()
	if err := errs.take(); err != nil {
		return Result{}, err
	}

	// Phase 2 (global synchronization + structured exchange): each block's
	// right and top interface point sets are checked against the points
	// its neighbour holds on the same edge.
	conforming := true
	for j := 0; j < nb; j++ {
		for i := 0; i < nb; i++ {
			b := blocks[j*nb+i]
			if i+1 < nb && !b.conformsWith(blocks[j*nb+i+1], 0) || j+1 < nb && !b.conformsWith(blocks[(j+1)*nb+i], 1) {
				conforming = false
			}
		}
	}
	for _, b := range blocks {
		b.mesh.Recycle()
	}

	return Result{
		Method:     "UPDR",
		Elements:   int(elements.Load()),
		Vertices:   int(vertices.Load()),
		Subdomains: nb * nb,
		PEs:        cfg.PEs,
		Elapsed:    time.Since(start),
		Conforming: conforming,
		Quality:    q.Close("UPDR", conforming, ""),
	}, nil
}
