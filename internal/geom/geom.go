// Package geom provides the 2-D geometric primitives used by the mesh
// generation substrates: points, bounding boxes, robust orientation and
// in-circle predicates, circumcircle computations and triangle quality
// measures.
//
// The predicates use a floating-point filter with a forward error bound and
// fall back to exact arithmetic (math/big) only when the filter cannot
// certify the sign, following the approach popularized by Shewchuk's
// adaptive predicates.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q, treating both as vectors.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q, treating both as vectors.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Eq reports whether p and q are exactly equal.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max the
// upper-right corner; a Rect with Min==Max is a degenerate (empty) rectangle.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the height of r.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Center returns the center point of r.
func (r Rect) Center() Point { return r.Min.Mid(r.Max) }

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersects reports whether r and s share any area or boundary.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// BoundingRect returns the bounding rectangle of the given points. It panics
// if pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// Segment is a line segment between two points.
type Segment struct {
	A, B Point
}

// Len returns the length of s.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Mid returns the midpoint of s.
func (s Segment) Mid() Point { return s.A.Mid(s.B) }

// DiametralContains reports whether p lies strictly inside the diametral
// circle of s (the circle with s as diameter). This is the encroachment test
// of Ruppert's algorithm: a point inside a segment's diametral circle
// encroaches upon the segment.
func (s Segment) DiametralContains(p Point) bool {
	// p is inside the diametral circle iff angle(A, p, B) > 90°, i.e. the
	// dot product (A-p)·(B-p) < 0.
	return s.A.Sub(p).Dot(s.B.Sub(p)) < 0
}
