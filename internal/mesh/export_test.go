package mesh

import (
	"bytes"

	"mrts/internal/geom"
)

// What the external tests (package mesh_test, which may import the refiner)
// need from inside.
const RaceEnabled = raceEnabled

var SortKey = sortKey

// NumConstrained returns the number of constrained edges.
func (m *Mesh) NumConstrained() int { return len(m.constrained) }

// RawMesh is a mesh of the vertex, triangle and constrained-edge lists as
// given, which no insertion need be able to make: duplicate points,
// degenerate and repeated triangles, coordinates that are not finite. Its
// triangles have no neighbours, so only its encoders may be used on it.
func RawMesh(verts []geom.Point, super [3]VertexID, tris [][3]VertexID, cons ...[2]VertexID) *Mesh {
	m := &Mesh{verts: verts, super: super, nAlive: len(tris), constrained: map[edgeKey]bool{}}
	for _, v := range tris {
		m.tris = append(m.tris, Tri{V: v})
		m.flags = append(m.flags, flagAlive)
	}
	for _, c := range cons {
		m.constrained[mkEdge(c[0], c[1])] = true
	}
	return m
}

// EncodeRaw is the encoding of RawMesh, ids out of range included.
func EncodeRaw(verts []geom.Point, super [3]VertexID, tris [][3]VertexID, cons ...[2]VertexID) []byte {
	var buf bytes.Buffer
	if err := RawMesh(verts, super, tris, cons...).EncodeTo(&buf); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
}
