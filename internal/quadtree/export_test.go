package quadtree

// Child quadrant order, as Split returns the children.
const (
	SW = iota
	SE
	NW
	NE
)
