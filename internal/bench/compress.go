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

// Compress runs the same OPCDM problem through the tiered hierarchy with the
// tier-0.5 compression layer off and on. The point of comparison is the
// bottom of the hierarchy: bytes_moved is measured at the raw disk store,
// below the compression layer, so the "on" run must move fewer media bytes
// for the same mesh — the ratio is the layer's whole value proposition. Time
// should not regress, which is a property of the codec and not of compression
// as such: on a 574 KB refined block the plane coder (internal/planes) takes
// 0.9 ms to encode and 0.6 ms to decode for a ratio of 1.63, and the modeled
// 150 MB/s disk charges 1.5 ms for the bytes that saves. DEFLATE at BestSpeed,
// which this layer used before, took 6.2 ms and 4.9 ms for a ratio of 1.55.
func Compress(opts Options) (*Table, error) {
	t := &Table{
		ID:      "compress",
		Title:   "tier-0.5 transparent compression: OPCDM with the layer off vs on",
		Headers: []string{"compression", "time", "disk bytes moved", "ratio", "cache hit%"},
		Notes: []string{
			"bytes moved is measured at the raw disk store, below the compression layer",
			"ratio = raw bytes / stored bytes across every framed blob; cache holds compressed frames",
		},
	}
	size := opts.size(60000)
	// The same bounded tier-0 lease as the tiers experiment's midpoint: a
	// real spill stream is what gives the compression layer traffic.
	capMid := int64(size * bytesPerElement / 6 / opts.PEs)
	sweep := []struct {
		label string
		spec  *cluster.CompressSpec
	}{
		{"off", nil},
		{"on", &cluster.CompressSpec{CacheBytes: 1 << 20}},
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
			Tier:         &cluster.TierSpec{Capacity: capMid, Compress: pt.spec},
			SpoolDir:     dir,
			Factory:      meshgen.Factory,
			Network:      comm.LatencyModel{Latency: 200 * time.Microsecond, BytesPerSec: 100 << 20},
			Disk:         storage.DiskModel{Seek: 600 * time.Microsecond, BytesPerSec: 150 << 20},
			Trace:        opts.Trace,
			TraceLabel:   fmt.Sprintf("compress/%s/", pt.label),
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		res, err := meshgen.RunOPCDM(cl, meshgen.PCDMConfig{Grid: 8, TargetElements: size})
		disk := cl.DiskStats()
		cst, haveStats := cl.CompressStats()
		cl.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		bytesMoved := disk.BytesWritten + disk.BytesRead
		ratioCol, hitCol := "—", "—"
		if haveStats {
			ratioCol = fmt.Sprintf("%.2fx", cst.Ratio())
			hitCol = fmtPct(cst.CacheHitRatio() * 100)
		}
		t.AddRow(pt.label, fmtDur(res.Elapsed), fmtInt(int(bytesMoved)), ratioCol, hitCol)
		prefix := fmt.Sprintf("sz%d/%s", size, pt.label)
		t.SetMetric(prefix+"/time_sec", res.Elapsed.Seconds())
		t.SetMetric(prefix+"/bytes_moved", float64(bytesMoved))
		if haveStats {
			t.SetMetric(prefix+"/compress_ratio", cst.Ratio())
			t.SetMetric(prefix+"/tier05_hit_pct", cst.CacheHitRatio()*100)
		}
	}
	return t, nil
}
