package meshgen

import (
	"fmt"
	"sync"

	"mrts/internal/core"
)

// This file is the SPMD driver the cell methods run on — OUPDR's blocks
// (Dist), OPCDM's subdomains (RunOPCDM) and ONUPDR's quad-tree leaves
// (RunONUPDR). Every node executes the same code against its own
// core.Runtime — one per worker process in a multi-process run, one per
// in-process node under the Run functions — and the only thing the nodes
// share is the placement below. No node ever tells another which MobilePtr
// it minted: each one computes the whole pointer table from the cell count
// and the node count, and create checks the prediction against what
// CreateObject actually returned. A cell is an index; the grid methods map
// index j*nb+i to their cell (i, j) themselves.

// grid is one node's share of n cells, one mobile object per cell.
type grid struct {
	rt     *core.Runtime
	nodes  int
	node   core.NodeID
	phases int
	ptrs   []core.MobilePtr // the pointer table, indexed by cell
}

// newGrid computes the placement every node of a run computes alike. Cell
// idx is dealt to node idx%nodes, so each node holds within one cell of an
// even share, and its Seq is its owner's creation order: CreateObject
// assigns 1, 2, ... on a fresh runtime, and the cells are created in reverse
// order, the last first. A cell's pointer names the node that holds it, so
// the runtime's default routing reaches it in one hop.
func newGrid(rt *core.Runtime, cells, nodes, node, phases int) *grid {
	g := &grid{rt: rt, nodes: nodes, node: core.NodeID(node), phases: phases,
		ptrs: make([]core.MobilePtr, cells)}
	seq := make([]uint32, nodes)
	for idx := cells - 1; idx >= 0; idx-- {
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
		return fmt.Errorf("meshgen: cell %d minted %v, placement predicted %v", idx, got, g.ptrs[idx])
	}
	return nil
}

// create creates this node's cells in creation order, cell idx as mk(idx).
func (g *grid) create(mk func(idx int) core.Object) error {
	for _, idx := range g.local() {
		if err := g.createAt(idx, mk(idx)); err != nil {
			return err
		}
	}
	return nil
}

// post sends h to this node's cells of phase k (those whose creation ordinal
// is k mod phases). Every node must post the same phase, then wait — the
// phases are global barriers. The posts go in cell order, left and bottom
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

// everyCell kicks off every cell (runGrid).
func everyCell(int) bool { return true }

// runGrid runs an in-process cell method, grids[n] being node n's share: it
// posts h to every cell that start accepts, in cell order from one
// goroutine, each post on its owner's runtime, then waits for global
// termination on every node at once. Posting is much faster than a
// handler, so every cell's kick-off is queued before a neighbour's handler
// can message it, whichever node runs first; with each node posting its own
// cells, a node that started late would see its neighbours' messages before
// its kick-offs, and OPCDM, whose mesh depends on the order a subdomain
// meets them in, would spread wider.
func runGrid(grids []*grid, h core.HandlerID, start func(idx int) bool) {
	for idx, ptr := range grids[0].ptrs {
		if start(idx) {
			grids[ptr.Home].rt.Post(ptr, h, nil)
		}
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

// cover merges the nodes' reports into one per cell of n, in cell order,
// and fails unless every cell is reported exactly once; at gives a report's
// cell, and name names a cell in an error.
func cover[T any](n int, parts [][]T, at func(T) int, name func(idx int) string) ([]T, error) {
	out := make([]T, n)
	seen := make([]bool, n)
	for _, part := range parts {
		for _, r := range part {
			idx := at(r)
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("meshgen: a report names cell %d of %d", idx, n)
			}
			if seen[idx] {
				return nil, fmt.Errorf("meshgen: %s reported twice", name(idx))
			}
			seen[idx] = true
			out[idx] = r
		}
	}
	for idx, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("meshgen: %s missing", name(idx))
		}
	}
	return out, nil
}

// gridCell is cell (i, j) of an nb×nb grid, -1 off the grid.
func gridCell(nb, i, j int) int {
	if i < 0 || i >= nb || j < 0 || j >= nb {
		return -1
	}
	return j*nb + i
}

// gridName names the cells of an nb×nb grid as what (i, j), for cover.
func gridName(nb int, what string) func(idx int) string {
	return func(idx int) string { return fmt.Sprintf("%s (%d,%d)", what, idx%nb, idx/nb) }
}
