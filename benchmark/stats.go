package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the rule Python's
// statistics.quantiles(xs, n=4) uses (the "exclusive" method), so a spread
// computed here equals the one the acceptance driver computes. Fewer than two
// samples have no spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// bestTenth returns the sample that bounds the best tenth of xs: the k-th
// lowest where lower is better, the k-th highest where higher is, with
// k = ceil(n/10), so the best sample itself of ten or fewer. What else runs
// on the host can only slow a timing down, by bursts that last seconds, so
// the samples the host left alone are the fast ones and this one moves far
// less from run to run than their median does (README.md, "Steadiness").
func bestTenth(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := (len(s) + 9) / 10
	if better == "higher" {
		return s[len(s)-k]
	}
	return s[k-1]
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the percentiles a timing may be reported at, lowest
// first, each with the share of the samples that lies beyond it.
var tailPercentiles = []struct {
	p      float64
	beyond int // one sample in this many
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// highestPercentile returns the highest of tailPercentiles that still has at
// least ten of the n samples beyond it; 50 when even p90 has not.
func highestPercentile(n int) float64 {
	best := tailPercentiles[0].p
	for _, t := range tailPercentiles {
		if n >= 10*t.beyond {
			best = t.p
		}
	}
	return best
}

// percentile returns the value below which p percent of the sorted samples
// lie (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailValue reports the samples' p-th percentile, or the highest percentile
// the sample count supports when that is lower, with the percentile used.
func tailValue(samples []float64, p float64) (value, used float64) {
	used = math.Min(p, highestPercentile(len(samples)))
	return percentile(sortedCopy(samples), used), used
}

// interval is a half-open time interval [start, end).
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it its child spans cover:
// children are clipped to the parent, and time covered by several
// overlapping children is counted once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	cursor := parent.start
	for _, c := range clipped {
		if c.start > cursor {
			cursor = c.start
		}
		if c.end > cursor {
			covered += c.end - cursor
			cursor = c.end
		}
	}
	return parent.end - parent.start - covered
}

// worsening returns by what share of base the value cur is worse, negative
// when it is better. A zero base cannot be compared and reports no change.
func worsening(m metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// setupSlackS is the absolute worsening setup_s may show before its relative
// bound applies: a few milliseconds of set-up jitter are a large share of a
// short set-up and no regression.
const setupSlackS = 0.050

// regressed applies a metric's bound: cur is a regression against base when
// it is worse by more than the bound, and, for setup_s, by more than the
// absolute slack as well.
func regressed(m metricDef, base, cur float64) bool {
	if worsening(m, base, cur) <= m.Bound {
		return false
	}
	if m.Name == "setup_s" && cur-base <= setupSlackS {
		return false
	}
	return true
}
