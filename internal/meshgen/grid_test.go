package meshgen

import (
	"fmt"
	"strings"
	"testing"
)

// TestGridDealSplitsEvenly: the placement deals every grid the methods run
// over within one cell of an even split, on any node count, and each owner's
// pointers are its creation order — Seq 1, 2, ... in reverse grid order.
func TestGridDealSplitsEvenly(t *testing.T) {
	for _, nb := range []int{6, 8, 16} {
		for nodes := 1; nodes <= 4; nodes++ {
			ptrs := newGrid(nil, nb*nb, nodes, 0, 1).ptrs
			split := make([]int, nodes)
			for idx := len(ptrs) - 1; idx >= 0; idx-- {
				owner := ptrs[idx].Home
				split[owner]++
				if ptrs[idx].Seq != uint32(split[owner]) {
					t.Fatalf("%dx%d on %d nodes: cell %d has Seq %d, its owner's creation ordinal is %d",
						nb, nb, nodes, idx, ptrs[idx].Seq, split[owner])
				}
			}
			lo, hi := split[0], split[0]
			for _, n := range split {
				lo, hi = min(lo, n), max(hi, n)
			}
			if hi-lo > 1 {
				t.Errorf("%dx%d on %d nodes: split %v is not within one cell of even", nb, nb, nodes, split)
			}
		}
	}
}

// TestRunOPCDMOnOneToFourNodes: however many nodes the subdomains are dealt
// over, every node holds its dealt share, every subdomain reports exactly
// once (RunOPCDM fails otherwise) and the mesh conforms.
func TestRunOPCDMOnOneToFourNodes(t *testing.T) {
	cfg := PCDMConfig{Grid: 3, TargetElements: 5000}
	for nodes := 1; nodes <= 4; nodes++ {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			cl := newTestCluster(t, nodes, 1<<30)
			res, err := RunOPCDM(cl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Conforming || res.Subdomains != cfg.Grid*cfg.Grid || res.Elements == 0 {
				t.Fatalf("%v: conforming %v", res, res.Conforming)
			}
			for n, rt := range cl.Runtimes() {
				want := 0
				for idx := 0; idx < cfg.Grid*cfg.Grid; idx++ {
					if idx%nodes == n {
						want++
					}
				}
				if got := rt.NumLocalObjects(); got != want {
					t.Errorf("node %d holds %d subdomains, the deal gives it %d", n, got, want)
				}
			}
		})
	}
}

// TestRunOPCDMRefusesAUsedCluster: the placement predicts every subdomain's
// pointer from a fresh runtime, so a second run on the same cluster fails
// before it creates anything, naming a node that already holds objects.
func TestRunOPCDMRefusesAUsedCluster(t *testing.T) {
	cl := newTestCluster(t, 2, 1<<30)
	cfg := PCDMConfig{Grid: 3, TargetElements: 3000}
	if _, err := RunOPCDM(cl, cfg); err != nil {
		t.Fatal(err)
	}
	held := make([]int, cl.Nodes())
	for i, rt := range cl.Runtimes() {
		held[i] = rt.NumLocalObjects()
	}
	_, err := RunOPCDM(cl, cfg)
	want := fmt.Sprintf("node 0 already holds %d objects", held[0])
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("second run: err = %v, want it to say %q", err, want)
	}
	for i, rt := range cl.Runtimes() {
		if got := rt.NumLocalObjects(); got != held[i] {
			t.Fatalf("node %d holds %d objects after the refused run, %d before", i, got, held[i])
		}
	}
}
