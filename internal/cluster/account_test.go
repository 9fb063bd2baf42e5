package cluster

import (
	"testing"
	"time"

	"mrts/internal/clock"
	"mrts/internal/core"
	"mrts/internal/obs"
	"mrts/internal/storage"
)

// The time account (Cluster.Report): Total is wall × PEs on the cluster's
// clock, and every category is measured once, where the activity is known.

// TestReportTwoWorkersComputingIsNotOverlap: one node, two workers, memory to
// spare, no disk and no network model. Two objects computing at once keep two
// PEs busy; that is what two PEs are for, not overlap, and computation cannot
// take more than the PE time there was.
func TestReportTwoWorkersComputingIsNotOverlap(t *testing.T) {
	c, err := New(Config{Nodes: 1, WorkersPerNode: 2, MemBudget: 1 << 20, Factory: ballastFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const work = 30 * time.Millisecond
	c.RT(0).Register(1, func(ctx *core.Ctx, arg []byte) { time.Sleep(work) })
	for i := 0; i < 2; i++ {
		c.RT(0).Post(c.RT(0).CreateObject(&ballastObj{}), 1, nil)
	}
	c.Wait()
	r := c.Report()
	if r.Comp < 2*work {
		t.Fatalf("Comp = %v, want both handlers' %v", r.Comp, 2*work)
	}
	if r.Comm != 0 || r.Disk != 0 {
		t.Errorf("comm %v, disk %v on a cluster with neither", r.Comm, r.Disk)
	}
	if r.Comp > r.Total {
		t.Errorf("Comp %v exceeds Total %v (wall × %d PEs)", r.Comp, r.Total, c.PEs())
	}
	if got := r.Overlap(); got != 0 {
		t.Errorf("Overlap = %.1f%% with nothing but computation running: %+v", got, r)
	}
}

// waitIOIdle waits, in real time, until every swap I/O request submitted so
// far has completed and its worker has gone back to waiting. It must not
// sleep on the cluster's clock: under a virtual clock that would let time
// pass while no modeled activity is running.
func waitIOIdle(t *testing.T, c *Cluster) {
	t.Helper()
	idle := func() bool {
		s := c.IOStats()
		return s.QueueDepth == 0 && s.DemandLoads+s.Writes+s.Prefetches ==
			s.CompletedDemand+s.CompletedWrites+s.CompletedPrefetch+s.Cancelled
	}
	deadline := time.Now().Add(10 * time.Second)
	for quiet := 0; quiet < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("swap I/O never went idle: %+v", c.IOStats())
		}
		if idle() {
			quiet++
		} else {
			quiet = 0
		}
		time.Sleep(time.Millisecond)
	}
}

// virtualDiskRun drives a fixed, serial schedule through one node whose disk
// costs a second per operation on a virtual clock: twelve 1 KB objects under
// a budget of three, each messaged twice in turn. It returns the report, the
// node's time.total_sec gauge and the media-level operation count.
func virtualDiskRun(t *testing.T, disk storage.DiskModel) (obs.Report, float64, uint64) {
	t.Helper()
	vclk := clock.NewVirtual()
	defer vclk.Stop()
	c, err := New(Config{
		Nodes:     1,
		IOWorkers: 2,
		MemBudget: 4000,
		Disk:      disk,
		Factory:   ballastFactory,
		Clock:     vclk,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ran := make(chan struct{}, 1) // buffered: a handler never waits while virtual time could pass
	c.RT(0).Register(1, func(ctx *core.Ctx, arg []byte) {
		ctx.Object().(*ballastObj).N++
		ran <- struct{}{}
	})
	var ptrs []core.MobilePtr
	for i := 0; i < 12; i++ {
		ptrs = append(ptrs, c.RT(0).CreateObject(&ballastObj{Data: make([]byte, 1000)}))
		waitIOIdle(t, c)
	}
	for round := 0; round < 2; round++ {
		for _, p := range ptrs {
			c.RT(0).Post(p, 1, nil)
			<-ran
			waitIOIdle(t, c)
		}
	}
	// Nothing sleeps on the clock now, so virtual time stands still and the
	// two readings see the same instant.
	d := c.DiskStats()
	return c.Report(), c.Metrics()["node0.time.total_sec"], d.Puts + d.Gets
}

// TestReportOnVirtualClock: on a virtual clock with a modeled disk the whole
// account is virtual time. The disk layer is busy exactly for the modeled
// service time of the operations that reached the medium — two I/O workers
// on one spindle are one busy disk, not two — Total and the per-node gauge
// run on the same clock, and the same seed gives the same numbers.
func TestReportOnVirtualClock(t *testing.T) {
	disk := storage.DiskModel{Seek: time.Second, BytesPerSec: 1 << 20}
	start := time.Now()
	r, gauge, ops := virtualDiskRun(t, disk)
	real := time.Since(start)

	if ops < 24 {
		t.Fatalf("only %d media operations: the run did not go out of core", ops)
	}
	blob := (&ballastObj{Data: make([]byte, 1000)}).SizeHint()
	if want := time.Duration(ops) * disk.ServiceTime(blob); r.Disk != want {
		t.Errorf("Disk = %v, want %d operations × %v = %v", r.Disk, ops, disk.ServiceTime(blob), want)
	}
	if r.Total < r.Disk || r.Total < 10*real {
		t.Errorf("Total = %v (disk %v) in a run of %v real time: not the virtual clock's", r.Total, r.Disk, real)
	}
	if gauge != r.Total.Seconds() {
		t.Errorf("node0.time.total_sec = %v, Report().Total = %v", gauge, r.Total.Seconds())
	}
	// Handlers take no virtual time of their own (one that happens to be on
	// the processor when the clock steps is billed that step, so Comp is not
	// compared); messages on one node take none at all.
	if r.Comm != 0 || r.Comp > r.Total {
		t.Errorf("comm %v, comp %v of %v", r.Comm, r.Comp, r.Total)
	}

	r2, gauge2, ops2 := virtualDiskRun(t, disk)
	if r2.Disk != r.Disk || r2.Total != r.Total || gauge2 != gauge || ops2 != ops {
		t.Errorf("second run differs:\n first  %+v (%d ops)\n second %+v (%d ops)", r, ops, r2, ops2)
	}
}

// TestReportTieredAndRestartedNode: a cluster over the tiered store and a
// node relaunched by RestartNode report through the same path as any other —
// the swap I/O worker loop — so a node's disk time is bounded by its wall
// time, and a relaunched node's account carries on where its old
// incarnation's stopped. (CrashNode takes plain disk clusters only, so the
// two are two clusters.)
func TestReportTieredAndRestartedNode(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tiered  bool
		restart bool
	}{{"tiered", true, false}, {"restarted", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			vclk := clock.NewVirtual()
			defer vclk.Stop()
			cfg := Config{
				Nodes:     2,
				MemBudget: 3000,
				Disk:      storage.DiskModel{Seek: 2 * time.Millisecond, BytesPerSec: 10 << 20},
				Factory:   ballastFactory,
				Clock:     vclk,
			}
			if tc.tiered {
				cfg.RemoteMemory, cfg.Tier = true, &TierSpec{Capacity: 2000}
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			work := func(rts ...*core.Runtime) {
				for _, rt := range rts {
					rt.Register(1, func(ctx *core.Ctx, arg []byte) {
						ctx.Object().(*ballastObj).N++
						vclk.Sleep(time.Millisecond)
					})
				}
			}
			work(c.Runtimes()...)
			var ptrs []core.MobilePtr
			for i := 0; i < 8; i++ {
				ptrs = append(ptrs, c.RT(i%2).CreateObject(&ballastObj{Data: make([]byte, 1000)}))
			}
			rounds := func(n int) {
				for ; n > 0; n-- {
					for _, p := range ptrs {
						c.RT(0).Post(p, 1, nil)
					}
					c.Wait()
				}
			}
			node := func(i int) obs.Report { return c.RT(i).Report() }
			bounded := func() {
				t.Helper()
				for i := 0; i < c.Nodes(); i++ {
					if r := node(i); r.Disk <= 0 || r.Disk > r.Total || r.Comp <= 0 || r.Comp > r.Total {
						t.Errorf("node %d account out of bounds: %+v", i, r)
					}
				}
			}

			rounds(4)
			if ts := c.TierStats(); tc.tiered && ts.Spills == 0 && ts.Demotions == 0 {
				t.Fatalf("working set never reached the disk tier: %+v", ts)
			}
			bounded()
			if !tc.restart {
				return
			}
			before := node(1)
			if err := c.CrashNode(1); err != nil {
				t.Fatalf("CrashNode: %v", err)
			}
			rt, err := c.RestartNode(1)
			if err != nil {
				t.Fatalf("RestartNode: %v", err)
			}
			work(rt)
			rounds(4)
			bounded()
			after := node(1)
			if after.Comp <= before.Comp || after.Disk <= before.Disk || after.Total <= before.Total {
				t.Errorf("node 1's account did not carry on across the restart:\n before %+v\n after  %+v", before, after)
			}
		})
	}
}
