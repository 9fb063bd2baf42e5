package obs

import (
	"fmt"
	"time"
)

// Report is the time account of Tables IV-VI: how long the processing
// elements computed, how long messages were on the wire and how long the
// disk layer was busy, against the time there was to spend. Each category is
// one kind's total, measured once, where the activity is known:
//
//   - Comp is KindHandler: handler time, exclusive per PE (a worker runs one
//     handler at a time and an inline call is inside its caller), so
//     Comp <= Total by construction;
//   - Comm is KindCommSend: the wire time of the network model, reported by
//     the endpoint that applies it;
//   - Disk is KindSwapBusy: the time at least one swap I/O worker was serving
//     a request, taken in the worker loop — no queue wait, at most the wall
//     time per node, and under a modeled disk the spindle's booked time.
//
// Total is wall time × PEs. The categories run concurrently, so their sum
// can exceed Total; that excess is the overlap the MRTS exists to maximize.
type Report struct {
	Comp, Comm, Disk time.Duration
	Total            time.Duration
}

// Report derives the account of a node with pes processing elements from
// the tracer's totals. The wall time runs on the tracer's clock, from its
// creation.
func (t *Tracer) Report(pes int) Report {
	if t == nil {
		return Report{}
	}
	return Report{
		Comp:  t.Total(KindHandler),
		Comm:  t.Total(KindCommSend),
		Disk:  t.Total(KindSwapBusy),
		Total: time.Duration(t.now()-t.born) * time.Duration(pes),
	}
}

// Merge sums the per-node reports of one parallel run. Each Total is already
// wall × the node's PEs, so the sum is wall × the run's PEs and percentages
// remain comparable to a single node's.
func Merge(reports ...Report) Report {
	var out Report
	for _, r := range reports {
		out.Comp += r.Comp
		out.Comm += r.Comm
		out.Disk += r.Disk
		out.Total += r.Total
	}
	return out
}

// Percent returns d — one of the report's categories — as a share of Total
// in percent.
func (r Report) Percent(d time.Duration) float64 {
	if r.Total <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(r.Total)
}

// Overlap returns the paper's overlap metric in percent: how much of the
// categorized activity ran concurrently with other activity, i.e.
// (Comp+Comm+Disk−Total)/Total × 100, clamped at 0. (The paper prints the
// formula without the subtraction but reports 50-62% values, which is only
// consistent with the excess-over-serial reading; see DESIGN.md.)
func (r Report) Overlap() float64 {
	sum := r.Comp + r.Comm + r.Disk
	if r.Total <= 0 || sum <= r.Total {
		return 0
	}
	return 100 * float64(sum-r.Total) / float64(r.Total)
}

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("comp %.1f%% comm %.1f%% disk %.1f%% overlap %.1f%% (total %v)",
		r.Percent(r.Comp), r.Percent(r.Comm), r.Percent(r.Disk), r.Overlap(), r.Total.Round(time.Millisecond))
}

// Speed computes the paper's single-PE performance metric for Tables I-III:
// Speed = S / (T × N), in elements per second per processing element.
func Speed(elements int, total time.Duration, pes int) float64 {
	if total <= 0 || pes <= 0 {
		return 0
	}
	return float64(elements) / total.Seconds() / float64(pes)
}
