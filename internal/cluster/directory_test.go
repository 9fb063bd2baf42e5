package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mrts/internal/core"
)

func nodeSet(n int) []core.NodeID {
	ids := make([]core.NodeID, n)
	for i := range ids {
		ids[i] = core.NodeID(i)
	}
	return ids
}

// Placement must be within ±15% of uniform across 8 nodes.
func TestDirectoryUniformSpread(t *testing.T) {
	const nodes, keys = 8, 20000
	d := NewDirectory(nodeSet(nodes))
	counts := make(map[core.NodeID]int)
	for i := 0; i < keys; i++ {
		owner, _ := d.Owner(fmt.Sprintf("key-%d", i))
		counts[owner]++
	}
	mean := float64(keys) / float64(nodes)
	for n := core.NodeID(0); n < nodes; n++ {
		dev := (float64(counts[n]) - mean) / mean
		if dev < -0.15 || dev > 0.15 {
			t.Errorf("node %d owns %d keys (%.1f%% from uniform %g)", n, counts[n], dev*100, mean)
		}
	}
}

// Consistent hashing's point: a membership change moves only the departing
// or arriving node's arcs — about 1/N of the keys, bounded here at 2/N.
func TestDirectoryMinimalMovement(t *testing.T) {
	const nodes, keys = 8, 20000
	limit := keys * 2 / nodes

	d := NewDirectory(nodeSet(nodes))
	before := make([]core.NodeID, keys)
	for i := range before {
		before[i], _ = d.Owner(fmt.Sprintf("key-%d", i))
	}

	d.Remove(3)
	movedByLeave := 0
	for i := range before {
		now, _ := d.Owner(fmt.Sprintf("key-%d", i))
		if now != before[i] {
			movedByLeave++
			if before[i] != 3 {
				t.Fatalf("key-%d moved %d->%d though node 3 left", i, before[i], now)
			}
		}
	}
	if movedByLeave > limit {
		t.Errorf("leave moved %d keys, want <= %d", movedByLeave, limit)
	}

	d.Add(3)
	movedByJoin := 0
	for i := range before {
		now, _ := d.Owner(fmt.Sprintf("key-%d", i))
		if now != before[i] {
			t.Fatalf("key-%d at %d, want original owner %d after symmetric rejoin", i, now, before[i])
		}
		if now == 3 {
			movedByJoin++ // keys that came back to the rejoined node
		}
	}
	if movedByJoin > limit {
		t.Errorf("join moved %d keys, want <= %d", movedByJoin, limit)
	}
	if movedByJoin == 0 {
		t.Error("rejoined node owns no keys")
	}
}

// The same membership always yields the same ring — the property that lets
// every process compute placement without communication.
func TestDirectoryDeterministic(t *testing.T) {
	a := NewDirectory(nodeSet(5))
	b := NewDirectory([]core.NodeID{4, 2, 0, 3, 1}) // same set, any order
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("obj-%d", i)
		oa, _ := a.Owner(key)
		ob, _ := b.Owner(key)
		if oa != ob {
			t.Fatalf("key %q: owner %d vs %d", key, oa, ob)
		}
	}
}

// OwnerAt against a superseded ring must fail typed, and retrying against
// the fresh epoch must succeed — exercised concurrently under -race.
func TestDirectoryStaleEpochRetry(t *testing.T) {
	d := NewDirectory(nodeSet(4))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-%d", w, i)
				owner, epoch := d.Owner(key)
				if owner < 0 {
					t.Error("empty ring during churn")
					return
				}
				if _, err := d.OwnerAt(key, epoch); err != nil {
					if !errors.Is(err, ErrStaleEpoch) {
						t.Errorf("OwnerAt error = %v, want ErrStaleEpoch", err)
						return
					}
					// Retry against the current ring: must resolve.
					retry, e2 := d.Owner(key)
					if retry < 0 || e2 < epoch {
						t.Errorf("retry after stale epoch: owner %d epoch %d->%d", retry, epoch, e2)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		d.Remove(core.NodeID(i % 3)) // node 3 always stays: ring never empties
		if bad := d.CheckInvariants(); len(bad) > 0 {
			t.Errorf("invariants after remove: %v", bad)
		}
		d.Add(core.NodeID(i % 3))
	}
	close(stop)
	wg.Wait()

	if bad := d.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
	if got := d.Size(); got != 4 {
		t.Fatalf("size = %d, want 4", got)
	}
}

func TestDirectoryEdgeCases(t *testing.T) {
	d := NewDirectory(nil)
	if owner, _ := d.Owner("x"); owner != -1 {
		t.Fatalf("empty ring owner = %d, want -1", owner)
	}
	e1 := d.Epoch()
	if e := d.Add(7); e <= e1 {
		t.Fatalf("add epoch %d, want > %d", e, e1)
	}
	if e := d.Add(7); e != d.Epoch() {
		t.Fatal("re-adding a member must not bump the epoch")
	}
	if owner, _ := d.Owner("x"); owner != 7 {
		t.Fatalf("single-node ring owner = %d, want 7", owner)
	}
	if !d.Contains(7) || d.Contains(3) {
		t.Fatal("Contains is wrong")
	}
	if _, err := d.OwnerAt("x", d.Epoch()+1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("future epoch = %v, want ErrStaleEpoch", err)
	}
}
