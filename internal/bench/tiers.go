package bench

import (
	"fmt"
	"os"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/comm"
	"mrts/internal/meshgen"
	"mrts/internal/storage"
)

// Tiers sweeps the OPCDM workload over the tier-0 (remote memory) capacity
// of the tiered storage hierarchy. The endpoints bracket the paper's
// remote-memory comparison as one curve: capacity 0 is pure disk (the
// classic OOC configuration), unbounded capacity is pure remote memory (the
// conclusion's proposal), and the intermediate lease exercises the full
// placement machinery — admission, spill, demotion — with a
// tier-0 hit ratio strictly between the endpoints' 0 and 1.
func Tiers(opts Options) (*Table, error) {
	t := &Table{
		ID:      "tiers",
		Title:   "tiered OOC storage: OPCDM vs tier-0 (remote memory) capacity",
		Headers: []string{"tier0 lease", "time", "hit%", "spills", "demotions", "evictions", "lost"},
		Notes: []string{
			"capacity 0 = pure disk, unbounded = pure remote memory (the paper's remotemem endpoints)",
			"the intermediate lease shows adaptive placement: spills and a partial tier-0 hit ratio",
		},
	}
	size := opts.size(60000)
	// A fraction of the spilled working set (~2/3 of the mesh leaves the
	// budget): big enough to absorb real traffic, small enough to spill.
	capMid := int64(size * bytesPerElement / 6 / opts.PEs)
	sweep := []struct {
		label string
		cap   int64
	}{
		{"cap0", 0},
		{"capmid", capMid},
		{"capinf", -1},
	}
	for _, pt := range sweep {
		dir, err := os.MkdirTemp("", "mrts-bench-")
		if err != nil {
			return nil, err
		}
		cl, err := cluster.New(cluster.Config{
			Nodes:        opts.PEs,
			MemBudget:    int64(size * bytesPerElement / 3 / opts.PEs),
			RemoteMemory: true,
			Tier:         &cluster.TierSpec{Capacity: pt.cap},
			SpoolDir:     dir,
			Factory:      meshgen.Factory,
			Network:      comm.LatencyModel{Latency: 200 * time.Microsecond, BytesPerSec: 100 << 20},
			Disk:         storage.DiskModel{Seek: 600 * time.Microsecond, BytesPerSec: 150 << 20},
			Trace:        opts.Trace,
			TraceLabel:   fmt.Sprintf("tiers/%s/", pt.label),
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		res, err := meshgen.RunOPCDM(cl, meshgen.PCDMConfig{Grid: 8, TargetElements: size})
		ts := cl.TierStats()
		wait := cl.IOStats().DemandWaitMean()
		lost := cl.SwapStats().ObjectsLost
		cl.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		label := "0 (disk)"
		switch {
		case pt.cap < 0:
			label = "unbounded (remote)"
		case pt.cap > 0:
			label = fmtK(int(pt.cap)) + "B/node"
		}
		t.AddRow(label, fmtDur(res.Elapsed), fmtPct(ts.HitRatio()*100),
			fmtInt(int(ts.Spills)), fmtInt(int(ts.Demotions)),
			fmtInt(int(res.Mem.Evictions)), fmtInt(int(lost)))
		prefix := fmt.Sprintf("sz%d/%s", size, pt.label)
		t.SetMetric(prefix+"/time_sec", res.Elapsed.Seconds())
		t.SetMetric(prefix+"/tier0_hit_pct", ts.HitRatio()*100)
		t.SetMetric(prefix+"/demand_wait_ms", float64(wait.Microseconds())/1000)
		if pt.label == "capmid" {
			t.SetMetric(prefix+"/spills", float64(ts.Spills))
			t.SetMetric(prefix+"/demotions", float64(ts.Demotions))
		}
	}
	return t, nil
}
