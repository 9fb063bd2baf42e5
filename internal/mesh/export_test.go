package mesh

import (
	"bytes"

	"mrts/internal/geom"
)

// What the external tests (package mesh_test, which may import the refiner)
// need from inside.
const RaceEnabled = raceEnabled

var SortKey = sortKey

// EncodeRaw encodes vertex, triangle and constrained-edge lists as given,
// which no Mesh need be able to hold: duplicate points, degenerate and
// repeated triangles, ids out of range.
func EncodeRaw(verts []geom.Point, super [3]VertexID, tris [][3]VertexID, cons ...[2]VertexID) []byte {
	m := &Mesh{verts: verts, super: super, nAlive: len(tris), constrained: map[edgeKey]bool{}}
	for _, v := range tris {
		m.tris = append(m.tris, Tri{V: v})
		m.flags = append(m.flags, flagAlive)
	}
	for _, c := range cons {
		m.constrained[mkEdge(c[0], c[1])] = true
	}
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.Bytes()
}
