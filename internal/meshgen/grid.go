package meshgen

import (
	"fmt"
	"sync"

	"mrts/internal/core"
)

// This file is the SPMD driver both grid methods run on — OUPDR's blocks
// (Dist) and OPCDM's subdomains (RunOPCDM). Every node executes the same
// code against its own core.Runtime — one per worker process in a
// multi-process run, one per in-process node under RunOUPDR and RunOPCDM —
// and the only thing the nodes share is the placement below. No node ever
// tells another which MobilePtr it minted: each one computes the whole
// pointer table from the grid and the node count, and create checks the
// prediction against what CreateObject actually returned.

// grid is one node's share of a grid of mobile objects, one object per cell
// of an nb×nb decomposition.
type grid struct {
	rt     *core.Runtime
	nb     int // grid dimension
	nodes  int
	node   core.NodeID
	phases int
	ptrs   []core.MobilePtr // the pointer table, indexed j*nb+i
}

// newGrid computes the placement every node of a run computes alike. Cell
// idx is dealt to node idx%nodes, so each node holds within one cell of an
// even share, and its Seq is its owner's creation order: CreateObject
// assigns 1, 2, ... on a fresh runtime, and the cells are created in reverse
// grid order, top-right first. A cell's pointer names the node that holds
// it, so the runtime's default routing reaches it in one hop.
func newGrid(rt *core.Runtime, nb, nodes, node, phases int) *grid {
	g := &grid{rt: rt, nb: nb, nodes: nodes, node: core.NodeID(node), phases: phases,
		ptrs: make([]core.MobilePtr, nb*nb)}
	seq := make([]uint32, nodes)
	for idx := nb*nb - 1; idx >= 0; idx-- {
		owner := idx % nodes
		seq[owner]++
		g.ptrs[idx] = core.MobilePtr{Home: core.NodeID(owner), Seq: seq[owner]}
	}
	return g
}

// local returns this node's cells (indexes into ptrs) in creation order.
func (g *grid) local() []int {
	var out []int
	for idx := len(g.ptrs) - 1; idx >= 0; idx-- {
		if g.ptrs[idx].Home == g.node {
			out = append(out, idx)
		}
	}
	return out
}

// createAt creates o as cell idx and checks the pointer it was minted with
// against the table — the property the whole cross-node addressing scheme
// rests on.
func (g *grid) createAt(idx int, o core.Object) error {
	if got := g.rt.CreateObject(o); got != g.ptrs[idx] {
		return fmt.Errorf("meshgen: cell (%d,%d) minted %v, placement predicted %v",
			idx%g.nb, idx/g.nb, got, g.ptrs[idx])
	}
	return nil
}

// create creates this node's cells in creation order, cell (i, j) as
// mk(i, j).
func (g *grid) create(mk func(i, j int) core.Object) error {
	for _, idx := range g.local() {
		if err := g.createAt(idx, mk(idx%g.nb, idx/g.nb)); err != nil {
			return err
		}
	}
	return nil
}

// post sends h to this node's cells of phase k (those whose creation ordinal
// is k mod phases). Every node must post the same phase, then wait — the
// phases are global barriers. The posts go in grid order, left and bottom
// neighbours first, so the messages a cell sends its right and top
// neighbours mostly reach cells that have not run yet.
func (g *grid) post(k int, h core.HandlerID) {
	for idx, ptr := range g.ptrs {
		if (len(g.ptrs)-1-idx)%g.phases == k && ptr.Home == g.node {
			g.rt.Post(ptr, h, nil)
		}
	}
}

// wait runs the distributed termination protocol: a barrier every node of
// the run enters.
func (g *grid) wait() { g.rt.WaitTermination(g.nodes) }

// runGrid runs an in-process grid method, grids[n] being node n's share: it
// posts h to every cell in grid order from one goroutine, each post on its
// owner's runtime, then waits for global termination on every node at once.
// Posting is much faster than a handler, so every cell's kick-off is queued
// before a neighbour's handler can message it, whichever node runs first;
// with each node posting its own cells, a node that started late would see
// its neighbours' messages before its kick-offs, and OPCDM, whose mesh
// depends on the order a subdomain meets them in, would spread wider.
func runGrid(grids []*grid, h core.HandlerID) {
	for _, ptr := range grids[0].ptrs {
		grids[ptr.Home].rt.Post(ptr, h, nil)
	}
	onEveryNode(len(grids), func(n int) error {
		grids[n].wait()
		return nil
	})
}

// freshRuntimes refuses runtimes that already hold objects, naming the
// first such node: the placement predicts every pointer from a fresh
// runtime, so a grid method runs once per cluster.
func freshRuntimes(method string, rts []*core.Runtime) error {
	for i, rt := range rts {
		if n := rt.NumLocalObjects(); n > 0 {
			return fmt.Errorf("meshgen: %s needs fresh runtimes; node %d already holds %d objects", method, i, n)
		}
	}
	return nil
}

// onEveryNode runs f on nodes 0..n-1 at once, as a collective requires, and
// returns the first error in node order, naming its node.
func onEveryNode(n int, f func(node int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("meshgen: node %d: %w", i, err)
		}
	}
	return nil
}

// cover merges the nodes' reports into one per cell of the nb×nb grid, in
// grid order, and fails unless every cell is reported exactly once; at
// names a report's cell and what the kind of thing it reports.
func cover[T any](nb int, parts [][]T, at func(T) (i, j int), what string) ([]T, error) {
	out := make([]T, nb*nb)
	seen := make([]bool, nb*nb)
	for _, part := range parts {
		for _, r := range part {
			i, j := at(r)
			if i < 0 || i >= nb || j < 0 || j >= nb {
				return nil, fmt.Errorf("meshgen: %s (%d,%d) is outside the %dx%d grid", what, i, j, nb, nb)
			}
			idx := j*nb + i
			if seen[idx] {
				return nil, fmt.Errorf("meshgen: %s (%d,%d) reported twice", what, i, j)
			}
			seen[idx] = true
			out[idx] = r
		}
	}
	for idx, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("meshgen: %s (%d,%d) missing", what, idx%nb, idx/nb)
		}
	}
	return out, nil
}
