package core

import "sync"

// Locator is the routing seam: it answers "where do I send a message for
// this mobile pointer first?" and absorbs the staleness feedback that keeps
// that answer fresh. The runtime consults it on every non-local Post, after
// every migration, and whenever a forwarded message finally reaches its
// object. Implementations must be safe for concurrent use and must never
// acquire runtime locks (the runtime calls Locate while holding rt.mu on the
// re-route path).
//
// NewPolicyLocator implements it for the paper's three home-anchored
// directory policies (lazy forwarding chains, eager broadcast, pure home
// routing); Config.Locator lets a test inject its own.
type Locator interface {
	// Locate returns the first hop for ptr. Returning the local node parks
	// the message until an install or directory update re-routes it.
	Locate(ptr MobilePtr) NodeID
	// Note records an observed location: ptr was seen (or installed) at the
	// given node. Implementations should treat a matching cached entry as a
	// no-op without taking their write lock — Note runs on the forward path.
	Note(ptr MobilePtr, at NodeID)
	// Forget drops any cached location for ptr, called when the object
	// installs locally (the objects table now answers before the locator).
	Forget(ptr MobilePtr)
	// FeedbackTargets returns the stale nodes to repair after a forwarded
	// message is delivered here. route is the full forwarding chain in hop
	// order; the final entry routed correctly and needs no update.
	FeedbackTargets(route []NodeID) []NodeID
	// MigrateTargets returns the nodes to proactively notify when a local
	// object migrates from here to dest (dest itself learns via the install).
	MigrateTargets(ptr MobilePtr, dest NodeID) []NodeID
	// Cached snapshots the cached location table for checkpointing.
	Cached() map[MobilePtr]NodeID
	// String names the locator in reports and bench tables.
	String() string
}

// policyLocator implements the paper's three home-anchored directory
// policies behind the Locator seam. The location cache lives here, off
// rt.mu: Locate and the matching-entry fast path of Note take only a read
// lock, so forward-path traffic no longer serializes against object-table
// mutations.
type policyLocator struct {
	policy DirectoryPolicy
	self   NodeID
	nodes  int // cluster size, for the eager broadcast (0 disables it)

	mu  sync.RWMutex
	dir map[MobilePtr]NodeID
}

// NewPolicyLocator builds the home-anchored locator for one of the paper's
// directory policies. self is the owning node; nodes is the cluster size
// (used only by DirEager to enumerate broadcast targets; 0 disables the
// broadcast).
func NewPolicyLocator(policy DirectoryPolicy, self NodeID, nodes int) Locator {
	return &policyLocator{policy: policy, self: self, nodes: nodes,
		dir: make(map[MobilePtr]NodeID)}
}

// Locate implements Locator.
func (pl *policyLocator) Locate(ptr MobilePtr) NodeID {
	if pl.policy == DirHome && ptr.Home != pl.self {
		// Non-home nodes never cache: always route via home. The home node
		// itself consults its map (it is the forwarding anchor).
		return ptr.Home
	}
	pl.mu.RLock()
	n, ok := pl.dir[ptr]
	pl.mu.RUnlock()
	if ok {
		return n
	}
	return ptr.Home
}

// Note implements Locator. The read-locked fast path makes the common case
// — a directory update confirming what is already cached — lock-traffic
// free on the forward path (see BenchmarkLocatorNote*).
func (pl *policyLocator) Note(ptr MobilePtr, at NodeID) {
	if pl.policy == DirHome && ptr.Home != pl.self {
		return // never cached, never read
	}
	pl.mu.RLock()
	cur, ok := pl.dir[ptr]
	pl.mu.RUnlock()
	if ok && cur == at {
		return
	}
	pl.mu.Lock()
	pl.dir[ptr] = at
	pl.mu.Unlock()
}

// Forget implements Locator.
func (pl *policyLocator) Forget(ptr MobilePtr) {
	pl.mu.Lock()
	delete(pl.dir, ptr)
	pl.mu.Unlock()
}

// FeedbackTargets implements Locator: only the lazy policy repairs the
// forwarding chain after delivery ("update messages flow back to every node
// the message was routed through").
func (pl *policyLocator) FeedbackTargets(route []NodeID) []NodeID {
	if pl.policy != DirLazy || len(route) < 2 {
		return nil
	}
	out := make([]NodeID, 0, len(route)-1)
	for _, via := range route[:len(route)-1] {
		if via != pl.self {
			out = append(out, via)
		}
	}
	return out
}

// MigrateTargets implements Locator: every policy informs the home node (the
// routing anchor for nodes with no cache entry); the eager policy
// additionally broadcasts to the whole cluster. Home appears twice under
// eager by design — it mirrors the historical update traffic the routing
// experiment's dir-updates column counts.
func (pl *policyLocator) MigrateTargets(ptr MobilePtr, dest NodeID) []NodeID {
	var out []NodeID
	if ptr.Home != pl.self && ptr.Home != dest {
		out = append(out, ptr.Home)
	}
	if pl.policy == DirEager {
		for n := 0; n < pl.nodes; n++ {
			if NodeID(n) != pl.self && NodeID(n) != dest {
				out = append(out, NodeID(n))
			}
		}
	}
	return out
}

// Cached implements Locator.
func (pl *policyLocator) Cached() map[MobilePtr]NodeID {
	pl.mu.RLock()
	out := make(map[MobilePtr]NodeID, len(pl.dir))
	for p, n := range pl.dir {
		out[p] = n
	}
	pl.mu.RUnlock()
	return out
}

// String implements Locator.
func (pl *policyLocator) String() string { return pl.policy.String() }
