package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/comm"
	"mrts/internal/core"
	"mrts/internal/ooc"
)

// Routing sweeps the paper's three directory policies over two migration
// regimes: with objects settled where the grid deal puts them, eager's first
// hop is exact while home pays the home detour and lazy a forwarding chain
// until its repair lands; under migration drift every policy pays something,
// and the sweep shows what. It normalizes per message, reports the hop
// mean, keeps at least three nodes (two cannot forward: a pointer's home is
// either the sender or the host) and is gated in CI.
func Routing(opts Options) (*Table, error) {
	policies, err := routingPolicies(opts.Dir)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "routing",
		Title:   "first-hop routing: the directory policies under settled and drifting placement",
		Headers: []string{"policy", "regime", "time", "fwd/msg", "hops", "dir updates"},
		Notes: []string{
			"settled: object i sits at node i mod nodes, the grid deal; drift: a third migrate to random nodes between rounds",
		},
	}
	for _, policy := range policies {
		for _, regime := range []string{"settled", "drift"} {
			m, err := routingRun(opts, policy, regime == "drift")
			if err != nil {
				return nil, err
			}
			t.AddRow(policy.String(), regime, fmtDur(m.elapsed),
				fmt.Sprintf("%.3f", m.fwdPerMsg), fmt.Sprintf("%.2f", m.hopsMean),
				fmtInt(int(m.dirUpdates)))
			pfx := fmt.Sprintf("%s/%s/", policy, regime)
			t.SetMetric(pfx+"time_sec", m.elapsed.Seconds())
			t.SetMetric(pfx+"forwarded_per_msg", m.fwdPerMsg)
			t.SetMetric(pfx+"hops_mean", m.hopsMean)
		}
	}
	return t, nil
}

// routingPolicies returns the policies the routing sweep runs: all three, or
// the one -dir names.
func routingPolicies(dir string) ([]core.DirectoryPolicy, error) {
	if dir == "" {
		return core.DirectoryPolicies(), nil
	}
	for _, p := range core.DirectoryPolicies() {
		if p.String() == dir {
			return []core.DirectoryPolicy{p}, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown -dir %q (want lazy, eager or home)", dir)
}

type routingMetrics struct {
	elapsed    time.Duration
	fwdPerMsg  float64
	hopsMean   float64
	dirUpdates int64
}

// routingRun executes one (policy, regime) cell: objects born on node 0,
// dealt over the nodes, then a post storm from random nodes. The drift regime
// migrates a third of the objects to random nodes between storm rounds, so
// the directory must catch up with objects that left their dealt node.
func routingRun(opts Options, policy core.DirectoryPolicy, drift bool) (routingMetrics, error) {
	var m routingMetrics
	// A two-node cluster cannot express a stale first hop: every object is
	// either local to the poster or on the only other node, so the home
	// anchor always answers correctly and all policies tie at zero. Three
	// nodes is the smallest shape with a real detour (poster, home, owner
	// pairwise distinct).
	nodes := opts.PEs
	if nodes < 3 {
		nodes = 3
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:     nodes,
		MemBudget: 1 << 24,
		Directory: policy,
		Network:   comm.LatencyModel{Latency: 100 * time.Microsecond},
		Policy:    ooc.LRU,
		Factory: func(typeID uint16) (core.Object, error) {
			if typeID == 9 {
				return &noopObj{}, nil
			}
			return nil, core.ErrUnknownType
		},
		Trace:      opts.Trace,
		TraceLabel: fmt.Sprintf("routing/%s/", policy),
	})
	if err != nil {
		return m, err
	}
	defer cl.Close()
	rts := cl.Runtimes()
	for _, rt := range rts {
		rt.Register(1, func(c *core.Ctx, arg []byte) {})
	}

	// Every object is born on node 0 (maximal home skew), then object i is
	// dealt to node i mod nodes — the placement the grid methods give their
	// cells at creation.
	const objects = 48
	ptrs := make([]core.MobilePtr, 0, objects)
	host := make([]core.NodeID, objects) // where each object currently lives
	for i := 0; i < objects; i++ {
		ptrs = append(ptrs, rts[0].CreateObject(&noopObj{}))
	}
	for i, p := range ptrs {
		host[i] = core.NodeID(i % nodes)
		if host[i] != 0 {
			if err := rts[0].Migrate(p, host[i]); err != nil {
				return m, err
			}
		}
	}
	cl.Wait()
	time.Sleep(5 * time.Millisecond) // let migration notices land

	posts := int(2000 * opts.Scale)
	if posts < 200 {
		posts = 200
	}
	before := cl.RouteStats()
	rng := rand.New(rand.NewSource(opts.seedFor(13)))
	start := time.Now()
	const rounds = 3
	for round := 0; round < rounds; round++ {
		if drift && round > 0 {
			// Migration drift: a third of the objects move to random nodes,
			// away from their dealt node.
			for i := rng.Intn(3); i < len(ptrs); i += 3 {
				dest := core.NodeID(rng.Intn(nodes))
				if dest == host[i] {
					continue
				}
				if err := cl.RT(int(host[i])).Migrate(ptrs[i], dest); err != nil {
					return m, err
				}
				host[i] = dest
			}
			cl.Wait()
			time.Sleep(5 * time.Millisecond)
		}
		for i := 0; i < posts/rounds; i++ {
			rts[rng.Intn(nodes)].Post(ptrs[rng.Intn(len(ptrs))], 1, nil)
		}
		cl.Wait()
	}
	m.elapsed = time.Since(start)
	after := cl.RouteStats()
	m.fwdPerMsg = float64(after.Forwarded-before.Forwarded) / float64(posts)
	m.hopsMean = after.HopsMean
	m.dirUpdates = after.DirUpdates - before.DirUpdates
	if after.Dropped != 0 {
		return m, fmt.Errorf("bench: routing %s: %d messages dropped at the hop bound", policy, after.Dropped)
	}
	return m, nil
}

// noopObj is a minimal object for the routing sweep.
type noopObj struct{}

func (o *noopObj) TypeID() uint16               { return 9 }
func (o *noopObj) EncodeTo(w io.Writer) error   { return nil }
func (o *noopObj) DecodeFrom(r io.Reader) error { return nil }
func (o *noopObj) SizeHint() int                { return 16 }
