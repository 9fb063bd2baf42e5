package core

import "sync/atomic"

// DirectoryPolicy selects how mobile object locations propagate after
// migration. The paper's system uses lazy updates, chosen over the
// alternatives after experimentation ("lazy updates provides good compromise
// between accuracy and update overhead"); all three candidates are
// implemented here so the trade-off can be measured (see the dirpolicies and
// routing bench experiments). The policies are realized behind the Locator
// seam — see NewPolicyLocator.
type DirectoryPolicy int

const (
	// DirLazy (default): messages are forwarded along stale directory
	// chains; when one finally reaches the object, update messages flow
	// back to every node it was routed through.
	DirLazy DirectoryPolicy = iota
	// DirEager: a migration immediately broadcasts the new location to
	// every node — accurate but O(nodes) traffic per migration.
	DirEager
	// DirHome: no location caching at all; every message for a non-local
	// object is sent to its home node, which forwards it — cheap updates,
	// permanent double-hop for migrated objects.
	DirHome
)

// String implements fmt.Stringer.
func (p DirectoryPolicy) String() string {
	switch p {
	case DirEager:
		return "eager"
	case DirHome:
		return "home"
	default:
		return "lazy"
	}
}

// DirectoryPolicies lists all supported policies.
func DirectoryPolicies() []DirectoryPolicy { return []DirectoryPolicy{DirLazy, DirEager, DirHome} }

// hopBuckets is the route.hops histogram width: buckets for 1..4 hops plus a
// final 5+ overflow bucket.
const hopBuckets = 5

// dirStats counts routing events for the policy comparison and the routing
// observability surface.
type dirStats struct {
	forwarded  atomic.Int64 // messages received for objects not local here
	dirUpdates atomic.Int64 // directory update messages sent
	dropped    atomic.Int64 // messages dropped at the forward-hop bound
	hopSum     atomic.Int64 // total hops across delivered remote messages
	hopCount   atomic.Int64 // delivered remote messages
	hops       [hopBuckets]atomic.Int64
}

// observeHops records the hop count of one delivered remote message.
func (s *dirStats) observeHops(hops int) {
	s.hopSum.Add(int64(hops))
	s.hopCount.Add(1)
	b := hops
	if b > hopBuckets {
		b = hopBuckets
	}
	if b >= 1 {
		s.hops[b-1].Add(1)
	}
}

// ForwardedCount returns how many application messages this node received
// and had to forward onward (a measure of directory staleness).
func (rt *Runtime) ForwardedCount() int64 { return rt.dstats.forwarded.Load() }

// DirUpdatesSent returns how many directory update messages this node sent.
func (rt *Runtime) DirUpdatesSent() int64 { return rt.dstats.dirUpdates.Load() }

// RouteDropped returns how many messages this node dropped at the
// forward-hop bound. Nonzero means a routing cycle or an object lost to a
// failed install — CheckInvariants surfaces it as a quiescent violation so
// sim soaks fail loudly instead of silently losing messages.
func (rt *Runtime) RouteDropped() int64 { return rt.dstats.dropped.Load() }

// RouteHopsMean returns the mean hop count over messages delivered to this
// node from remote senders (1.0 = every message took the direct hop).
func (rt *Runtime) RouteHopsMean() float64 {
	n := rt.dstats.hopCount.Load()
	if n == 0 {
		return 0
	}
	return float64(rt.dstats.hopSum.Load()) / float64(n)
}

// RouteHopHistogram returns the delivered-message hop histogram: buckets for
// 1, 2, 3, 4 and 5+ hops.
func (rt *Runtime) RouteHopHistogram() [hopBuckets]int64 {
	var out [hopBuckets]int64
	for i := range out {
		out[i] = rt.dstats.hops[i].Load()
	}
	return out
}

// Locator returns the runtime's routing locator.
func (rt *Runtime) Locator() Locator { return rt.loc }
