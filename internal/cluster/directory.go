package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"mrts/internal/core"
)

// Directory is the consistent-hash sharded object directory: it owns the
// key→node placement every node of a multi-process cluster computes
// identically and without communication. Each node is mapped to 512
// points on a 64-bit hash ring; a key is owned by the node whose ring point
// first follows the key's hash. Adding or removing one node therefore moves
// only the keys in the arcs that node's points cover — about 1/N of the
// keyspace — instead of rehashing everything.
//
// The ring is versioned by an epoch that increments on every membership
// change. Lookups made against a remembered epoch (OwnerAt) fail with
// ErrStaleEpoch when the ring has moved on, so a caller that cached a
// placement retries against the current ring instead of acting on a stale —
// and possibly wrong — owner.
//
// All methods are safe for concurrent use.
type Directory struct {
	mu    sync.RWMutex
	epoch uint64
	nodes map[core.NodeID]struct{}
	ring  []ringPoint // sorted by (hash, node)
}

type ringPoint struct {
	hash uint64
	node core.NodeID
}

// ErrStaleEpoch reports that a lookup was made against a superseded ring;
// the caller should re-resolve against the current epoch.
var ErrStaleEpoch = errors.New("cluster: stale ring epoch")

// pointsPerMember is the virtual-node count of each member on the ring. 512
// keeps the spread across 8 nodes within a few percent of uniform while the
// ring stays small enough to rebuild on every change.
const pointsPerMember = 512

// NewDirectory builds a ring over the given members. The initial epoch is 1.
func NewDirectory(nodes []core.NodeID) *Directory {
	d := &Directory{epoch: 1, nodes: make(map[core.NodeID]struct{}, len(nodes))}
	for _, n := range nodes {
		d.nodes[n] = struct{}{}
	}
	d.rebuildLocked()
	return d
}

// rebuildLocked regenerates the ring from the node set. Ring points depend
// only on the node ID, so every process derives the identical ring from
// the identical membership — the property that makes the directory shared
// without being replicated.
func (d *Directory) rebuildLocked() {
	d.ring = d.ring[:0]
	for n := range d.nodes {
		for v := 0; v < pointsPerMember; v++ {
			d.ring = append(d.ring, ringPoint{hash: vnodeHash(n, v), node: n})
		}
	}
	sort.Slice(d.ring, func(i, j int) bool {
		if d.ring[i].hash != d.ring[j].hash {
			return d.ring[i].hash < d.ring[j].hash
		}
		return d.ring[i].node < d.ring[j].node
	})
}

func vnodeHash(n core.NodeID, v int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "n%d#%d", n, v)
	return mix64(h.Sum64())
}

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-1a over short, similar strings
// ("n3#17", "mp-0-42") leaves correlated low bits; the finalizer spreads
// them over the whole ring so vnode arcs are near-uniform.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Epoch returns the current ring epoch.
func (d *Directory) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// Size returns the number of member nodes.
func (d *Directory) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.nodes)
}

// Nodes returns the members, sorted.
func (d *Directory) Nodes() []core.NodeID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ns := make([]core.NodeID, 0, len(d.nodes))
	for n := range d.nodes {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

// Contains reports whether n is a member.
func (d *Directory) Contains(n core.NodeID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.nodes[n]
	return ok
}

// Owner returns the node owning key on the current ring, plus the epoch the
// answer is valid for. An empty ring owns nothing and returns node -1.
func (d *Directory) Owner(key string) (core.NodeID, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ownerLocked(key), d.epoch
}

// OwnerAt returns the owner of key if the ring is still at the given epoch,
// and ErrStaleEpoch otherwise — the retry signal for cached placements.
func (d *Directory) OwnerAt(key string, epoch uint64) (core.NodeID, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if epoch != d.epoch {
		return -1, fmt.Errorf("%w: have %d, ring at %d", ErrStaleEpoch, epoch, d.epoch)
	}
	return d.ownerLocked(key), nil
}

// OwnerOf returns the owner of a mobile pointer's placement key.
func (d *Directory) OwnerOf(ptr core.MobilePtr) (core.NodeID, uint64) {
	return d.Owner(PtrKey(ptr))
}

// PtrKey is the canonical placement key of a mobile pointer.
func PtrKey(ptr core.MobilePtr) string {
	return fmt.Sprintf("mp-%d-%d", ptr.Home, ptr.Seq)
}

func (d *Directory) ownerLocked(key string) core.NodeID {
	if len(d.ring) == 0 {
		return -1
	}
	h := keyHash(key)
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i].hash >= h })
	if i == len(d.ring) {
		i = 0 // wrap: the first point owns the arc past the last hash
	}
	return d.ring[i].node
}

// Add inserts a member and returns the new epoch. Adding an existing member
// is a no-op returning the current epoch.
func (d *Directory) Add(n core.NodeID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.nodes[n]; ok {
		return d.epoch
	}
	d.nodes[n] = struct{}{}
	d.rebuildLocked()
	d.epoch++
	return d.epoch
}

// Remove deletes a member and returns the new epoch. Removing a non-member
// is a no-op returning the current epoch.
func (d *Directory) Remove(n core.NodeID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.nodes[n]; !ok {
		return d.epoch
	}
	delete(d.nodes, n)
	d.rebuildLocked()
	d.epoch++
	return d.epoch
}

// CheckInvariants audits the ring structure and returns human-readable
// violations (empty when healthy): the ring must hold exactly
// members×pointsPerMember points, sorted, every point owned by a member, and
// probe keys must resolve to exactly one member.
func (d *Directory) CheckInvariants() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var bad []string
	if want := len(d.nodes) * pointsPerMember; len(d.ring) != want {
		bad = append(bad, fmt.Sprintf("directory: ring has %d points, want %d", len(d.ring), want))
	}
	for i := 1; i < len(d.ring); i++ {
		if d.ring[i-1].hash > d.ring[i].hash {
			bad = append(bad, fmt.Sprintf("directory: ring unsorted at %d", i))
			break
		}
	}
	for _, p := range d.ring {
		if _, ok := d.nodes[p.node]; !ok {
			bad = append(bad, fmt.Sprintf("directory: ring point owned by non-member %d", p.node))
			break
		}
	}
	if len(d.nodes) > 0 {
		for i := 0; i < 16; i++ {
			key := fmt.Sprintf("probe-%d", i)
			owner := d.ownerLocked(key)
			if _, ok := d.nodes[owner]; !ok {
				bad = append(bad, fmt.Sprintf("directory: key %q resolves to non-member %d", key, owner))
			}
		}
	}
	return bad
}
