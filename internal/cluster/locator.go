// Placement-aware routing: a core.Locator backed by the epoch-versioned
// consistent-hash Directory. Where the paper's home-anchored policies route a
// first message via the object's birth node and repair staleness with
// forwarding chains, the placed locator resolves the first hop straight off
// the placement ring every node computes identically — a settled object costs
// exactly one hop no matter where it was created, and a membership change
// invalidates cached resolutions through the ring epoch instead of through
// chains of stale forwards.
package cluster

import (
	"sync"

	"mrts/internal/core"
)

// RoutingKind selects the locator wired into every node of a cluster.
type RoutingKind string

// Available routing kinds. The first three are the paper's home-anchored
// directory policies (see core.DirectoryPolicy); "placed" is the
// directory-backed locator.
const (
	RouteLazy   RoutingKind = "lazy" // default: forwarding chains + lazy repair
	RouteEager  RoutingKind = "eager"
	RouteHome   RoutingKind = "home"
	RoutePlaced RoutingKind = "placed"
)

// placedResolution is one cached ring lookup: the placement key (so the hot
// path never re-formats it), the owner it resolved to, and the epoch the
// answer is valid for. Directory.OwnerAt validates it on every use and fails
// with ErrStaleEpoch once the ring moves on.
type placedResolution struct {
	key   string
	node  core.NodeID
	epoch uint64
}

// PlacedLocator implements core.Locator over the cluster's shared Directory.
//
// Two tables cooperate. The resolution cache memoizes ring lookups and is
// validated against the live epoch on every Locate, so churn invalidates it
// wholesale without any per-entry bookkeeping. The override table records
// observed locations that differ from ring placement — an object an
// application migrated off its ring owner — learned from migration notices
// and delivery feedback; overrides survive epoch bumps (they describe where
// the object actually is, not where the ring says it should be) and are
// dropped when the object installs locally or feedback supersedes them.
//
// The locator holds only its own lock and the directory's read lock; it never
// touches runtime state, so the runtime may call it under rt.mu.
type PlacedLocator struct {
	dir  *Directory
	self core.NodeID

	mu       sync.RWMutex
	override map[core.MobilePtr]core.NodeID
	resolved map[core.MobilePtr]placedResolution
}

// NewPlacedLocator builds the placement-aware locator for one node over the
// cluster's shared ring. Every node wraps the same *Directory, so churn
// (Add/Remove) is coherent across the cluster by construction. Placement
// keys come from PtrKey — correct whenever objects were settled by
// Directory.OwnerOf (SettleAtOwners, the churn drain rule).
func NewPlacedLocator(dir *Directory, self core.NodeID) *PlacedLocator {
	return &PlacedLocator{
		dir:      dir,
		self:     self,
		override: make(map[core.MobilePtr]core.NodeID),
		resolved: make(map[core.MobilePtr]placedResolution),
	}
}

// Locate implements core.Locator: an observed off-ring location wins,
// otherwise the ring owner at the current epoch. Cached resolutions are
// revalidated with OwnerAt so a stale epoch re-resolves instead of routing to
// a node that may have left the ring.
func (l *PlacedLocator) Locate(ptr core.MobilePtr) (core.NodeID, uint64) {
	l.mu.RLock()
	ov, hasOv := l.override[ptr]
	res, hasRes := l.resolved[ptr]
	l.mu.RUnlock()
	if hasOv {
		return ov, l.dir.Epoch()
	}
	if hasRes {
		if _, err := l.dir.OwnerAt(res.key, res.epoch); err == nil {
			return res.node, res.epoch
		}
		// ErrStaleEpoch: the ring moved on under us; fall through and
		// re-resolve at the current epoch.
	}
	key := res.key
	if !hasRes {
		key = PtrKey(ptr)
	}
	node, epoch := l.dir.Owner(key)
	if node < 0 {
		// Empty ring (all members gone): fall back to the home anchor so the
		// message still has a deterministic first hop.
		return ptr.Home, epoch
	}
	l.mu.Lock()
	l.resolved[ptr] = placedResolution{key: key, node: node, epoch: epoch}
	l.mu.Unlock()
	return node, epoch
}

// Epoch implements core.Locator: the ring epoch versions every resolution.
func (l *PlacedLocator) Epoch() uint64 { return l.dir.Epoch() }

// Note implements core.Locator: record an observed location as an override
// when it differs from ring placement, with a read-locked fast path for the
// already-known case (Note runs on the forward path).
func (l *PlacedLocator) Note(ptr core.MobilePtr, at core.NodeID) {
	l.mu.RLock()
	cur, ok := l.override[ptr]
	l.mu.RUnlock()
	if ok && cur == at {
		return
	}
	if !ok {
		// Skip the override when the observation just confirms ring
		// placement — the resolution cache already answers that.
		if owner, _ := l.dir.Owner(PtrKey(ptr)); owner == at {
			return
		}
	}
	l.mu.Lock()
	l.override[ptr] = at
	l.mu.Unlock()
}

// Forget implements core.Locator, called when the object installs locally.
func (l *PlacedLocator) Forget(ptr core.MobilePtr) {
	l.mu.Lock()
	delete(l.override, ptr)
	delete(l.resolved, ptr)
	l.mu.Unlock()
}

// FeedbackTargets implements core.Locator: repair every hop of a forwarding
// chain, exactly like the lazy policy — chains only form here when an object
// sits off its ring placement, and the repair installs the override that
// collapses the next send back to one hop.
func (l *PlacedLocator) FeedbackTargets(route []core.NodeID) []core.NodeID {
	if len(route) < 2 {
		return nil
	}
	out := make([]core.NodeID, 0, len(route)-1)
	for _, via := range route[:len(route)-1] {
		if via != l.self {
			out = append(out, via)
		}
	}
	return out
}

// MigrateTargets implements core.Locator: when a migration takes the object
// off its ring placement, its ring owner must know — every other node's first
// hop lands there, and without the override the owner would park those
// messages forever (it has no local install coming).
func (l *PlacedLocator) MigrateTargets(ptr core.MobilePtr, dest core.NodeID) []core.NodeID {
	owner, _ := l.dir.Owner(PtrKey(ptr))
	if owner >= 0 && owner != l.self && owner != dest {
		return []core.NodeID{owner}
	}
	return nil
}

// Cached implements core.Locator: only the overrides are worth
// checkpointing — ring resolutions are recomputed from membership.
func (l *PlacedLocator) Cached() map[core.MobilePtr]core.NodeID {
	l.mu.RLock()
	out := make(map[core.MobilePtr]core.NodeID, len(l.override))
	for p, n := range l.override {
		out[p] = n
	}
	l.mu.RUnlock()
	return out
}

// String implements core.Locator.
func (l *PlacedLocator) String() string { return string(RoutePlaced) }
