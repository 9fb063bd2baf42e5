package meshgen

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/meshstore"
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
	// PEs is the number of processing elements (worker goroutines).
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

// interfacePoints returns the block's boundary points on the given side
// (0=right edge, 1=top edge), for interface exchange with the neighbor.
func (b *blockMesh) interfacePoints(side int) []geom.Point {
	var a, c geom.Point
	switch side {
	case 0: // right edge
		a = geom.Pt(b.rect.Max.X, b.rect.Min.Y)
		c = b.rect.Max
	default: // top edge
		a = geom.Pt(b.rect.Min.X, b.rect.Max.Y)
		c = b.rect.Max
	}
	return edgePointsOn(b.hull, a, c)
}

// RunUPDR executes the in-core uniform method: blocks are meshed in parallel
// by PE workers, then neighbors exchange interface point sets and verify
// conformity (the structured communication + global synchronization phase of
// the paper's UPDR).
func RunUPDR(cfg UPDRConfig) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	h := workload.UniformSizeFor(cfg.TargetElements, 1.0)
	nb := cfg.Blocks

	blocks := make([]*blockMesh, nb*nb)
	var elements, vertices atomic.Int64
	q := newQualityIf(cfg.Quality, cfg.QualityBound)
	target := constTarget(h)

	// Phase 1: mesh blocks in parallel.
	type job struct{ i, j int }
	jobs := make(chan job, nb*nb)
	for j := 0; j < nb; j++ {
		for i := 0; i < nb; i++ {
			jobs <- job{i, j}
		}
	}
	close(jobs)
	var wg sync.WaitGroup
	errs := make(chan error, cfg.PEs)
	for w := 0; w < cfg.PEs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				bm, err := meshBlock(blockRect(nb, jb.i, jb.j), h, cfg.QualityBound)
				if err != nil {
					errs <- err
					return
				}
				elements.Add(int64(bm.mesh.NumTriangles()))
				vertices.Add(int64(bm.mesh.NumVertices()))
				q.Add(bm.mesh, target)
				blocks[jb.j*nb+jb.i] = bm
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return Result{}, err
	default:
	}

	// Phase 2 (global synchronization + structured exchange): each block
	// sends its right/top interface point sets to the respective neighbor,
	// which verifies them against its own.
	conforming := true
	type xfer struct {
		dst  int
		side int
		pts  []geom.Point
	}
	ch := make(chan xfer, nb*nb*2)
	for j := 0; j < nb; j++ {
		for i := 0; i < nb; i++ {
			b := blocks[j*nb+i]
			if i+1 < nb {
				ch <- xfer{dst: j*nb + i + 1, side: 0, pts: b.interfacePoints(0)}
			}
			if j+1 < nb {
				ch <- xfer{dst: (j+1)*nb + i, side: 1, pts: b.interfacePoints(1)}
			}
		}
	}
	close(ch)
	for x := range ch {
		dst := blocks[x.dst]
		var a, c geom.Point
		if x.side == 0 { // neighbor's left edge
			a = dst.rect.Min
			c = geom.Pt(dst.rect.Min.X, dst.rect.Max.Y)
		} else { // neighbor's bottom edge
			a = dst.rect.Min
			c = geom.Pt(dst.rect.Max.X, dst.rect.Min.Y)
		}
		mine := edgePointsOn(dst.hull, a, c)
		if !samePoints(mine, x.pts) {
			conforming = false
		}
	}

	for i, b := range blocks {
		b.mesh.Recycle()
		blocks[i] = nil
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
