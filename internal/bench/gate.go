package bench

import (
	"fmt"
	"sort"
	"strings"
)

// GateConfig sets the tolerances for the benchmark-regression gate. The gate
// only checks metrics that can regress in one interesting direction:
//
//   - */speed_*: throughput (elements/sec/PE) may not drop below
//     baseline×SpeedTol — a relative lower bound, loose enough to absorb the
//     machine-to-machine spread of CI runners but tight enough that a
//     deliberate slowdown (a sleep in the swap path, a lost overlap) trips it.
//   - */overlap_pct: the paper's headline quality metric may not drop more
//     than OverlapTol absolute percentage points below baseline (overlap near
//     zero makes relative bounds meaningless).
//   - */time_*: wall times may not exceed baseline×TimeTol.
//   - */*_wait_ms: queueing latencies (the pipeline experiment's demand-load
//     wait) may not exceed baseline×WaitTol + waitSlackMs. The absolute slack
//     matters because a healthy demand wait is near zero — a fraction of a
//     millisecond — where a purely relative bound would trip on scheduler
//     jitter alone.
//   - */*hit_pct: cache-style hit ratios (the tiers experiment's tier-0 hit
//     percentage) may not drop more than HitTol absolute points below
//     baseline — absolute, like overlap, because the interesting endpoints
//     sit at 0 and 100 where relative bounds degenerate.
//   - */*_allocs_per_op: steady-state heap allocations on the swap hot path
//     (the alloc experiment) may not exceed baseline×AllocTol + allocSlack.
//     The absolute slack matters because the healthy value is a small
//     constant near zero, where a purely relative bound is meaningless.
//   - */bytes_moved: payload bytes crossing a storage boundary may not
//     exceed baseline×BytesTol. These are deterministic byte counts, not
//     wall times, so the bound can be much tighter than the time bounds —
//     a double-write or a lost compression win trips it regardless of
//     machine speed.
//   - */forwarded_per_msg: routing indirection (the routing experiment) may
//     not exceed baseline×ForwardTol + forwardSlack. The slack carries the
//     placed locator's settled regime, whose healthy baseline is exactly
//     zero — any systematic forwarding there is a routing regression, while
//     a purely relative bound over zero would be vacuous.
//   - */hops_mean: the delivered-message mean hop count may not exceed
//     baseline×HopsTol + hopsSlack; 1.0 means every remote message took the
//     direct hop.
//
// Everything else in the documents (evictions, element counts, breakdown
// percentages) is informational and not gated.
type GateConfig struct {
	// SpeedTol is the relative lower bound for speed metrics
	// (current >= baseline*SpeedTol). 0 means the default 0.6.
	SpeedTol float64
	// OverlapTol is the allowed absolute drop, in percentage points, for
	// overlap_pct metrics. 0 means the default 25.
	OverlapTol float64
	// TimeTol is the relative upper bound for time metrics
	// (current <= baseline*TimeTol). 0 means the default 1.8.
	TimeTol float64
	// WaitTol is the relative upper bound for *_wait_ms metrics
	// (current <= baseline*WaitTol + waitSlackMs). 0 means the default 5.
	WaitTol float64
	// HitTol is the allowed absolute drop, in percentage points, for
	// *hit_pct metrics. 0 means the default 25.
	HitTol float64
	// AllocTol is the relative upper bound for *_allocs_per_op metrics
	// (current <= baseline*AllocTol + allocSlack). 0 means the default 2.
	AllocTol float64
	// BytesTol is the relative upper bound for bytes_moved metrics
	// (current <= baseline*BytesTol). 0 means the default 1.5.
	BytesTol float64
	// ForwardTol is the relative upper bound for forwarded_per_msg metrics
	// (current <= baseline*ForwardTol + forwardSlack). 0 means the default 2.
	ForwardTol float64
	// HopsTol is the relative upper bound for hops_mean metrics
	// (current <= baseline*HopsTol + hopsSlack). 0 means the default 1.5.
	HopsTol float64
}

// waitSlackMs is the absolute headroom added on top of the relative wait
// bound; below this, queueing latency is noise, not a regression.
const waitSlackMs = 5.0

// allocSlack is the absolute headroom on allocs/op: a couple of incidental
// allocations (a map bucket split, a queue growth) are noise, not a
// regression, when the baseline itself sits near zero.
const allocSlack = 4.0

// forwardSlack is the absolute headroom on forwarded-per-message: a handful
// of forwards from scheduling races (a post landing during a migration
// install) are noise even when the baseline is exactly zero.
const forwardSlack = 0.05

// hopsSlack is the absolute headroom on the mean hop count, for the same
// reason: the healthy placed baseline sits at exactly 1.0.
const hopsSlack = 0.25

func (g GateConfig) withDefaults() GateConfig {
	if g.SpeedTol <= 0 {
		g.SpeedTol = 0.6
	}
	if g.OverlapTol <= 0 {
		g.OverlapTol = 25
	}
	if g.TimeTol <= 0 {
		g.TimeTol = 1.8
	}
	if g.WaitTol <= 0 {
		g.WaitTol = 5
	}
	if g.HitTol <= 0 {
		g.HitTol = 25
	}
	if g.AllocTol <= 0 {
		g.AllocTol = 2
	}
	if g.BytesTol <= 0 {
		g.BytesTol = 1.5
	}
	if g.ForwardTol <= 0 {
		g.ForwardTol = 2
	}
	if g.HopsTol <= 0 {
		g.HopsTol = 1.5
	}
	return g
}

// Compare checks current against baseline and returns one human-readable
// violation string per regression (empty slice = gate passes). A shape
// mismatch (different scale or PEs) or a baseline metric missing from the
// current run is itself a violation: silently comparing different runs would
// make the gate pass vacuously.
func Compare(baseline, current *Doc, cfg GateConfig) []string {
	cfg = cfg.withDefaults()
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
			want := base[k]
			got, ok := cur[k]
			kind := metricKind(k)
			if kind == gateSkip {
				continue
			}
			if !ok {
				out = append(out, fmt.Sprintf("%s: %s missing from current run", id, k))
				continue
			}
			switch kind {
			case gateSpeed:
				if floor := want * cfg.SpeedTol; got < floor {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.1f < %.1f (baseline %.1f × tol %.2f)",
						id, k, got, floor, want, cfg.SpeedTol))
				}
			case gateOverlap:
				if floor := want - cfg.OverlapTol; got < floor {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.1f%% < %.1f%% (baseline %.1f%% − %.0f pts)",
						id, k, got, floor, want, cfg.OverlapTol))
				}
			case gateTime:
				if ceil := want * cfg.TimeTol; got > ceil {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.3fs > %.3fs (baseline %.3fs × tol %.2f)",
						id, k, got, ceil, want, cfg.TimeTol))
				}
			case gateWait:
				if ceil := want*cfg.WaitTol + waitSlackMs; got > ceil {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.3fms > %.3fms (baseline %.3fms × tol %.2f + %.0fms slack)",
						id, k, got, ceil, want, cfg.WaitTol, waitSlackMs))
				}
			case gateHit:
				if floor := want - cfg.HitTol; got < floor {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.1f%% < %.1f%% (baseline %.1f%% − %.0f pts)",
						id, k, got, floor, want, cfg.HitTol))
				}
			case gateAlloc:
				if ceil := want*cfg.AllocTol + allocSlack; got > ceil {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.2f > %.2f (baseline %.2f × tol %.2f + %.0f slack)",
						id, k, got, ceil, want, cfg.AllocTol, allocSlack))
				}
			case gateBytes:
				if ceil := want * cfg.BytesTol; got > ceil {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.0f > %.0f bytes (baseline %.0f × tol %.2f)",
						id, k, got, ceil, want, cfg.BytesTol))
				}
			case gateForward:
				if ceil := want*cfg.ForwardTol + forwardSlack; got > ceil {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.3f > %.3f (baseline %.3f × tol %.2f + %.2f slack)",
						id, k, got, ceil, want, cfg.ForwardTol, forwardSlack))
				}
			case gateHops:
				if ceil := want*cfg.HopsTol + hopsSlack; got > ceil {
					out = append(out, fmt.Sprintf(
						"%s: %s regressed: %.2f > %.2f hops (baseline %.2f × tol %.2f + %.2f slack)",
						id, k, got, ceil, want, cfg.HopsTol, hopsSlack))
				}
			}
		}
	}
	return out
}

type gateKind int

const (
	gateSkip gateKind = iota
	gateSpeed
	gateOverlap
	gateTime
	gateWait
	gateHit
	gateAlloc
	gateBytes
	gateForward
	gateHops
)

// metricKind classifies a metric name ("sz40000/speed_ooc" etc.) into the
// bound the gate applies to it.
func metricKind(name string) gateKind {
	leaf := name
	if i := strings.LastIndex(name, "/"); i >= 0 {
		leaf = name[i+1:]
	}
	switch {
	case strings.HasPrefix(leaf, "speed_"):
		return gateSpeed
	case leaf == "overlap_pct":
		return gateOverlap
	case strings.HasPrefix(leaf, "time_") && strings.HasSuffix(leaf, "_sec"):
		return gateTime
	case strings.HasSuffix(leaf, "_wait_ms"):
		return gateWait
	case strings.HasSuffix(leaf, "hit_pct"):
		return gateHit
	case strings.HasSuffix(leaf, "_allocs_per_op"):
		return gateAlloc
	case leaf == "bytes_moved":
		return gateBytes
	case leaf == "forwarded_per_msg":
		return gateForward
	case leaf == "hops_mean":
		return gateHops
	default:
		return gateSkip
	}
}
