package bench

import (
	"fmt"
	"sort"
	"strings"
)

// bound is one row of the benchmark-regression gate: every metric whose leaf
// name matches leaf is checked against its baseline value base. An upper row
// fails when current > base×rel + abs, a lower row when current < base×rel −
// abs. In leaf, a '*' splits the pattern into a prefix and a suffix the name
// must carry (they may overlap: time_*_sec matches time_sec); a pattern
// without one is an exact name.
type bound struct {
	leaf     string
	lower    bool
	rel, abs float64
}

// bounds is the gate. The relative factors are wide because hosted CI
// runners vary in speed run to run; a deliberate slowdown (an added sleep, a
// lost overlap path) is still an order of magnitude and trips the gate.
// Counts that do not depend on the host (bytes, hops, forwards) are bounded
// tighter. An absolute slack carries the rows whose healthy baseline sits at
// or near zero, where a purely relative bound is vacuous or trips on noise.
// The first matching row applies; a metric no row matches (evictions,
// element counts, breakdown percentages) is informational and not gated.
var bounds = []bound{
	// Throughput (elements/sec/PE, MB/s).
	{leaf: "speed_*", lower: true, rel: 0.25},
	// The paper's headline quality metric, in percentage points: overlap
	// near zero makes a relative bound meaningless.
	{leaf: "overlap_pct", lower: true, rel: 1, abs: 25},
	// Wall times.
	{leaf: "time_*_sec", rel: 4},
	// Queueing latency (the demand-load wait). A healthy wait is a fraction
	// of a millisecond, where scheduler jitter alone would trip a relative
	// bound.
	{leaf: "*_wait_ms", rel: 10, abs: 5},
	// Cache-style hit ratios, in points: their endpoints sit at 0 and 100,
	// where relative bounds degenerate.
	{leaf: "*hit_pct", lower: true, rel: 1, abs: 25},
	// Steady-state heap allocations on the swap hot path: a couple of
	// incidental ones (a map bucket split, a queue growth) are noise.
	{leaf: "*_allocs_per_op", rel: 3, abs: 4},
	// Payload bytes crossing a storage boundary: a double write or a lost
	// compression win trips it regardless of machine speed.
	{leaf: "bytes_moved", rel: 2},
	// Routing indirection. The placed locator's settled baseline is exactly
	// zero; a handful of forwards from scheduling races (a post landing
	// during a migration install) are noise.
	{leaf: "forwarded_per_msg", rel: 2, abs: 0.05},
	// Mean hop count of delivered messages; 1.0 means every remote message
	// took the direct hop.
	{leaf: "hops_mean", rel: 1.5, abs: 0.25},
}

func (b bound) matches(leaf string) bool {
	pre, suf, glob := strings.Cut(b.leaf, "*")
	if !glob {
		return leaf == b.leaf
	}
	return strings.HasPrefix(leaf, pre) && strings.HasSuffix(leaf, suf)
}

// boundFor returns the row that gates a metric name ("sz40000/speed_ooc"
// etc.), or nil when none does.
func boundFor(name string) *bound {
	leaf := name[strings.LastIndex(name, "/")+1:]
	for i := range bounds {
		if bounds[i].matches(leaf) {
			return &bounds[i]
		}
	}
	return nil
}

// Gated reports whether the gate bounds the metric name.
func Gated(name string) bool { return boundFor(name) != nil }

// Compare checks current against baseline and returns one human-readable
// violation string per regression (empty slice = gate passes). A shape
// mismatch (different scale or PEs) or a baseline metric missing from the
// current run is itself a violation: silently comparing different runs would
// make the gate pass vacuously.
func Compare(baseline, current *Doc) []string {
	var out []string
	if baseline.Scale != current.Scale || baseline.PEs != current.PEs {
		out = append(out, fmt.Sprintf(
			"run shape mismatch: baseline scale=%g pes=%d, current scale=%g pes=%d",
			baseline.Scale, baseline.PEs, current.Scale, current.PEs))
		return out
	}
	for _, id := range baseline.ExperimentIDs() {
		base := baseline.Experiments[id]
		cur := current.Experiments[id]
		if cur == nil {
			out = append(out, fmt.Sprintf("%s: experiment missing from current run", id))
			continue
		}
		keys := make([]string, 0, len(base))
		for k := range base {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b := boundFor(k)
			if b == nil {
				continue
			}
			want := base[k]
			got, ok := cur[k]
			if !ok {
				out = append(out, fmt.Sprintf("%s: %s missing from current run", id, k))
				continue
			}
			if b.lower {
				if floor := want*b.rel - b.abs; got < floor {
					out = append(out, fmt.Sprintf("%s: %s regressed: %.4g < %.4g (baseline %.4g × %g − %g)",
						id, k, got, floor, want, b.rel, b.abs))
				}
			} else if ceil := want*b.rel + b.abs; got > ceil {
				out = append(out, fmt.Sprintf("%s: %s regressed: %.4g > %.4g (baseline %.4g × %g + %g)",
					id, k, got, ceil, want, b.rel, b.abs))
			}
		}
	}
	return out
}
