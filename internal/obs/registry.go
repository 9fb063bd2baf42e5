package obs

import "sync"

// Registry is the unified metrics surface: named read-through gauges (how
// ooc.Stats, SwapStats and the swap I/O counters are published without
// copying their state), flattened by Snapshot into one map.
//
// All methods are safe for concurrent use and safe on a nil receiver, so
// instrumented layers can accept an optional registry without branching.
type Registry struct {
	mu     sync.Mutex
	gauges map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: make(map[string]func() float64)}
}

// Gauge registers a read-through gauge. The function is called at every
// Snapshot; it must be safe for concurrent use. Re-registering a name
// replaces the previous function.
func (r *Registry) Gauge(name string, f func() float64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = f
	r.mu.Unlock()
}

// Snapshot evaluates every gauge into one map. Gauges are called outside
// the registry lock; a gauge must not call back into this registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	type namedGauge struct {
		name string
		f    func() float64
	}
	gauges := make([]namedGauge, 0, len(r.gauges))
	for name, f := range r.gauges {
		gauges = append(gauges, namedGauge{name, f})
	}
	r.mu.Unlock()
	out := make(Snapshot, len(gauges))
	for _, g := range gauges {
		out[g.name] = g.f()
	}
	return out
}

// Snapshot is a point-in-time flattening of a registry.
type Snapshot map[string]float64
