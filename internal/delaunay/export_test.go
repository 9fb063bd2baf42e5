package delaunay

import (
	"slices"

	"mrts/internal/geom"
	"mrts/internal/mesh"
)

// RefineAudited is Refine with the refiner's test-only audit hook, for the
// tests in package delaunay_test (which can import internal/workload, as
// this package's own tests cannot).
func RefineAudited(m *mesh.Mesh, opts Options, audit func(geom.Triangle, bool)) (Stats, error) {
	return refine(m, opts, 0, hooks{audit: audit})
}

// RefineFromSeeds is RefineFrom that also returns the list phase 2 seeded
// the stack with and the list a full scan of the mesh would have seeded at
// the same point.
func RefineFromSeeds(m *mesh.Mesh, opts Options, since int) (st Stats, seeds, full []mesh.TriID, err error) {
	st, err = refine(m, opts, since, hooks{seeded: func(r *refiner, s []mesh.TriID) {
		seeds = slices.Clone(s)
		m.ForEachTri(func(t mesh.TriID, _ mesh.Tri) {
			if bad, _, _ := r.isBad(t); bad {
				full = append(full, t)
			}
		})
	}})
	return st, seeds, full, err
}

// GradedLeaf is gradedLeaf, shared with the same tests.
var GradedLeaf = gradedLeaf
