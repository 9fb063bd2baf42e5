package delaunay

// RefineAudited is Refine with the refiner's test-only audit hook, for the
// tests in package delaunay_test (which can import internal/workload, as
// this package's own tests cannot).
var RefineAudited = refine

// GradedLeaf is gradedLeaf, shared with the same tests.
var GradedLeaf = gradedLeaf
