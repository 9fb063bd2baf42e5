// Package meshgen implements the three parallel unstructured mesh
// generation (PUMG) methods the paper uses to evaluate the MRTS, each in two
// builds:
//
//   - UPDR / OUPDR: uniform parallel Delaunay refinement over a block
//     decomposition with buffer-zone interfaces — structured communication
//     with global synchronization;
//   - NUPDR / ONUPDR: non-uniform (graded) refinement over an adaptive
//     quad-tree on a fixed precedence, each leaf meshed once its
//     lower-index neighbours have fixed their boundary points on its edges
//     (the paper runs a master refinement queue instead) — multi-threaded,
//     locally synchronized;
//   - PCDM / OPCDM: constrained Delaunay meshing over a domain
//     decomposition with asynchronous small "split" messages — fully
//     unstructured communication.
//
// The plain names are the traditional in-core parallel builds: each runs its
// pieces as tasks on one pool of PE workers of the computing layer (package
// sched), standing in for MPI ranks; the O-prefixed builds run on the MRTS
// (package core) with the dataset decomposed into mobile objects, and can
// execute problems larger than the per-node memory budget by swapping
// subdomains to the storage layer.
package meshgen

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"mrts/internal/geom"
	"mrts/internal/obs"
	"mrts/internal/ooc"
)

// Result summarizes one mesh generation run.
type Result struct {
	Method     string
	Elements   int
	Vertices   int
	Subdomains int
	PEs        int
	Elapsed    time.Duration
	Report     obs.Report // comp/comm/disk breakdown (OOC builds)
	Mem        ooc.Stats  // OOC layer statistics (OOC builds)
	Conforming bool       // interface conformity verified

	// MeshHash is the canonical digest of the whole refined mesh (per-block
	// sorted-triangle hashes combined in (J,I) order); set by RunOUPDR from
	// the digests each block took when its mesh was written, so it covers
	// the meshes as refined, not copies read back from disk. Equal hashes
	// mean geometrically identical meshes.
	MeshHash string

	// Quality is the run's quality report when its config asked for one
	// (ONUPDR and OPCDM have none), nil otherwise.
	Quality *Quality
}

// Speed returns the paper's per-PE performance metric S/(T·N).
func (r Result) Speed() float64 { return obs.Speed(r.Elements, r.Elapsed, r.PEs) }

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d elements, %d subdomains, %d PEs, %v (speed %.0f elem/s/PE)",
		r.Method, r.Elements, r.Subdomains, r.PEs, r.Elapsed.Round(time.Millisecond), r.Speed())
}

// firstErr keeps the first error the handlers of a run report, until the
// driver takes it.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// take returns the error kept, if any, and forgets it.
func (f *firstErr) take() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := f.err
	f.err = nil
	return err
}

// encodePoints serializes a point slice for message payloads.
func encodePoints(pts []geom.Point) []byte {
	b := make([]byte, 4+16*len(pts))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(pts)))
	off := 4
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[off:off+8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[off+8:off+16], math.Float64bits(p.Y))
		off += 16
	}
	return b
}

func decodePoints(b []byte) ([]geom.Point, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("meshgen: short point payload")
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if len(b) < 4+16*n {
		return nil, fmt.Errorf("meshgen: truncated point payload")
	}
	pts := make([]geom.Point, n)
	off := 4
	for i := range pts {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8 : off+16]))
		off += 16
	}
	return pts, nil
}

// lexLess orders points lexicographically; it fixes the canonical direction
// of an edge for bit-exact interpolation.
func lexLess(a, b geom.Point) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}

// edgeLerp returns point k of n+1 evenly spaced points on segment (a, b),
// computed in the canonical (lexicographic) direction so that two subdomains
// traversing the shared edge in opposite directions produce bit-identical
// coordinates.
func edgeLerp(a, b geom.Point, k, n int) geom.Point {
	if lexLess(b, a) {
		a, b = b, a
		k = n - k
	}
	if k <= 0 {
		return a
	}
	if k >= n {
		return b
	}
	t := float64(k) / float64(n)
	return geom.Pt(a.X+(b.X-a.X)*t, a.Y+(b.Y-a.Y)*t)
}

// boundaryPoints places points along the rectangle boundary of r with
// spacing at most h, deterministically from absolute coordinates — two
// subdomains sharing an edge therefore place identical points on it, which
// is what makes independently meshed neighbors conform ("the buffer zone is
// designed to not require any further refinement").
func boundaryPoints(r geom.Rect, h float64) []geom.Point {
	var pts []geom.Point
	edge := func(a, b geom.Point) {
		n := int(math.Ceil(a.Dist(b)/h + 1e-9))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			pts = append(pts, edgeLerp(a, b, i, n))
		}
	}
	c0 := r.Min
	c1 := geom.Pt(r.Max.X, r.Min.Y)
	c2 := r.Max
	c3 := geom.Pt(r.Min.X, r.Max.Y)
	edge(c0, c1)
	edge(c1, c2)
	edge(c2, c3)
	edge(c3, c0)
	return pts
}

// edgePointsOn returns the subset of pts lying on the segment from a to b
// (inclusive), sorted along the segment. Used by interface conformity
// checks.
func edgePointsOn(pts []geom.Point, a, b geom.Point) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if geom.OnSegment(a, b, p) {
			out = append(out, p)
		}
	}
	// Sort by parameter along the segment.
	d := b.Sub(a)
	den := d.Dot(d)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			ti := out[j].Sub(a).Dot(d) / den
			tj := out[j-1].Sub(a).Dot(d) / den
			if ti < tj {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}

// samePoints reports whether two point sequences are identical.
func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Eq(b[i]) {
			return false
		}
	}
	return true
}

// subdomainReport is what a driver's conformity audit and run totals read of
// one refined subdomain or leaf.
type subdomainReport struct {
	rect     geom.Rect
	elements int
	vertices int
	hull     []geom.Point // the boundary points; nil until refined
}

// auditInterfaces verifies interface conformity: both sides of every shared
// edge must hold identical points on it.
func auditInterfaces(reports []subdomainReport) bool {
	for i := range reports {
		for j := i + 1; j < len(reports); j++ {
			a, b, ok := sharedEdge(reports[i].rect, reports[j].rect)
			if !ok {
				continue
			}
			pa := edgePointsOn(reports[i].hull, a, b)
			pb := edgePointsOn(reports[j].hull, a, b)
			if !samePoints(pa, pb) {
				return false
			}
		}
	}
	return true
}
