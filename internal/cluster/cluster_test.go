package cluster

import (
	"encoding/binary"
	"io"
	"testing"
	"time"

	"mrts/internal/clock"
	"mrts/internal/core"
	"mrts/internal/ooc"
	"mrts/internal/storage"
)

// ballastObj is a trivially serializable mobile object for cluster tests.
type ballastObj struct {
	N    int64
	Data []byte
}

func (o *ballastObj) TypeID() uint16 { return 7 }

func (o *ballastObj) EncodeTo(w io.Writer) error {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(o.N))
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(o.Data)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	_, err := w.Write(o.Data)
	return err
}

func (o *ballastObj) DecodeFrom(r io.Reader) error {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	o.N = int64(binary.LittleEndian.Uint64(b[0:8]))
	o.Data = make([]byte, binary.LittleEndian.Uint32(b[8:12]))
	_, err := io.ReadFull(r, o.Data)
	return err
}

func (o *ballastObj) SizeHint() int { return 12 + len(o.Data) }

func ballastFactory(t uint16) (core.Object, error) {
	if t == 7 {
		return &ballastObj{}, nil
	}
	return nil, core.ErrUnknownType
}

func TestClusterBasic(t *testing.T) {
	c, err := New(Config{
		Nodes:          4,
		WorkersPerNode: 2,
		MemBudget:      1 << 20,
		Factory:        ballastFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Nodes() != 4 || c.PEs() != 8 {
		t.Fatalf("Nodes=%d PEs=%d", c.Nodes(), c.PEs())
	}
	for _, rt := range c.Runtimes() {
		rt.Register(1, func(ctx *core.Ctx, arg []byte) {
			ctx.Object().(*ballastObj).N++
		})
	}
	var ptrs []core.MobilePtr
	for i := 0; i < 4; i++ {
		ptrs = append(ptrs, c.RT(i).CreateObject(&ballastObj{}))
	}
	for _, rt := range c.Runtimes() {
		for _, p := range ptrs {
			rt.Post(p, 1, nil)
		}
	}
	c.Wait()
	r := c.Report()
	if r.Total <= 0 {
		t.Error("report should have wall time")
	}
}

func TestClusterOOCWithFileSpool(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{
		Nodes:     2,
		MemBudget: 3000,
		SpoolDir:  dir,
		Policy:    ooc.LFU,
		Factory:   ballastFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, rt := range c.Runtimes() {
		rt.Register(1, func(ctx *core.Ctx, arg []byte) {
			ctx.Object().(*ballastObj).N++
		})
	}
	var ptrs []core.MobilePtr
	for i := 0; i < 8; i++ {
		ptrs = append(ptrs, c.RT(i%2).CreateObject(&ballastObj{Data: make([]byte, 1000)}))
	}
	for round := 0; round < 4; round++ {
		for _, p := range ptrs {
			c.RT(0).Post(p, 1, nil)
		}
		c.Wait()
	}
	if s := c.MemStats(); s.Evictions == 0 {
		t.Error("expected evictions with tiny budget and file spool")
	}
}

func TestClusterGlobalQueueScheduler(t *testing.T) {
	c, err := New(Config{
		Nodes:     1,
		Scheduler: GlobalQueue,
		MemBudget: 1 << 20,
		Factory:   ballastFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	c.RT(0).Register(1, func(ctx *core.Ctx, arg []byte) { close(done) })
	p := c.RT(0).CreateObject(&ballastObj{})
	c.RT(0).Post(p, 1, nil)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never ran on globalqueue scheduler")
	}
	c.Wait()
}

func TestClusterRejectsZeroNodes(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSimulateJobsFCFSOrdering(t *testing.T) {
	jobs := []*Job{
		{ID: 0, Submit: 0, Nodes: 4, Runtime: 10 * time.Minute},
		{ID: 1, Submit: time.Minute, Nodes: 4, Runtime: 10 * time.Minute},
	}
	if err := SimulateJobs(JobSimConfig{ClusterNodes: 4}, jobs); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Wait() != 0 {
		t.Errorf("job 0 wait = %v", jobs[0].Wait())
	}
	// Job 1 must wait for job 0 to finish: starts at 10min, waited 9min.
	if jobs[1].start != 10*time.Minute {
		t.Errorf("job 1 start = %v", jobs[1].start)
	}
	if jobs[1].Wait() != 9*time.Minute {
		t.Errorf("job 1 wait = %v", jobs[1].Wait())
	}
}

func TestSimulateJobsBackfill(t *testing.T) {
	// Big job blocks the head; a small short job can backfill.
	mk := func() []*Job {
		return []*Job{
			{ID: 0, Submit: 0, Nodes: 8, Runtime: 60 * time.Minute},
			{ID: 1, Submit: time.Minute, Nodes: 8, Runtime: 30 * time.Minute}, // head waits
			{ID: 2, Submit: 2 * time.Minute, Nodes: 2, Runtime: 5 * time.Minute, Estimate: 5 * time.Minute},
		}
	}
	noBF := mk()
	if err := SimulateJobs(JobSimConfig{ClusterNodes: 10}, noBF); err != nil {
		t.Fatal(err)
	}
	withBF := mk()
	if err := SimulateJobs(JobSimConfig{ClusterNodes: 10, Backfill: true}, withBF); err != nil {
		t.Fatal(err)
	}
	// Job 2 fits in the 2 idle nodes; without backfill it waits behind the
	// head, with backfill it starts immediately.
	if withBF[2].Wait() != 0 {
		t.Errorf("backfilled job wait = %v, want 0", withBF[2].Wait())
	}
	if noBF[2].Wait() == 0 {
		t.Error("without backfill the small job should wait")
	}
	// Backfill must not delay the head job.
	if withBF[1].start > noBF[1].start {
		t.Errorf("backfill delayed the head: %v > %v", withBF[1].start, noBF[1].start)
	}
}

func TestSimulateJobsValidation(t *testing.T) {
	if err := SimulateJobs(JobSimConfig{ClusterNodes: 0}, nil); err == nil {
		t.Error("zero-node cluster should fail")
	}
	jobs := []*Job{{ID: 0, Nodes: 99, Runtime: time.Minute}}
	if err := SimulateJobs(JobSimConfig{ClusterNodes: 8}, jobs); err == nil {
		t.Error("oversized job should fail")
	}
}

func TestSyntheticWorkloadShape(t *testing.T) {
	jobs := SyntheticWorkload(WorkloadConfig{Jobs: 2000, ClusterNodes: 128, Seed: 1})
	if len(jobs) != 2000 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	counts := map[int]int{}
	for _, j := range jobs {
		counts[j.Nodes]++
		if j.Runtime < time.Minute {
			t.Fatal("runtime below floor")
		}
		if j.Estimate < j.Runtime {
			t.Fatal("estimate below runtime")
		}
	}
	if counts[1] < counts[32] {
		t.Error("small jobs should dominate the mix")
	}
	// Submissions must be increasing.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit < jobs[i-1].Submit {
			t.Fatal("submissions not monotone")
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	// The headline property of Figure 1: mean wait grows with requested
	// node count on a busy shared cluster.
	jobs := SyntheticWorkload(WorkloadConfig{
		Jobs:             3000,
		ClusterNodes:     128,
		Seed:             42,
		MeanInterarrival: 15 * time.Minute,
		MeanRuntime:      80 * time.Minute,
	})
	if err := SimulateJobs(JobSimConfig{ClusterNodes: 128, Backfill: true}, jobs); err != nil {
		t.Fatal(err)
	}
	buckets := []int{8, 16, 32, 128}
	wait := WaitByBucket(jobs, buckets)
	t.Logf("wait by bucket: <=8:%v <=16:%v <=32:%v <=128:%v",
		wait[8], wait[16], wait[32], wait[128])
	if !(wait[8] < wait[32]) {
		t.Errorf("small jobs should wait less than 32-node jobs: %v vs %v", wait[8], wait[32])
	}
	if !(wait[32] < wait[128]) {
		t.Errorf("32-node jobs should wait less than 128-node jobs: %v vs %v", wait[32], wait[128])
	}
}

func TestWaitByBucketAssignment(t *testing.T) {
	jobs := []*Job{
		{Nodes: 2, Submit: 0, start: 10 * time.Minute},
		{Nodes: 20, Submit: 0, start: 30 * time.Minute},
	}
	w := WaitByBucket(jobs, []int{8, 32})
	if w[8] != 10*time.Minute {
		t.Errorf("bucket 8 wait = %v", w[8])
	}
	if w[32] != 30*time.Minute {
		t.Errorf("bucket 32 wait = %v", w[32])
	}
}

func TestClusterRemoteMemory(t *testing.T) {
	// The "remote memory as out-of-core media" configuration: evicted
	// objects travel to a dedicated memory-server node instead of disk.
	// Without a TierSpec the lease is unbounded, so the disk under the tier
	// is never written.
	c, err := New(Config{
		Nodes:        2,
		MemBudget:    3000,
		RemoteMemory: true,
		Factory:      ballastFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.MemoryServer() == nil {
		t.Fatal("memory server missing")
	}
	if len(c.Tiers()) != 2 {
		t.Fatalf("want one tiered store per node, got %d", len(c.Tiers()))
	}
	for _, rt := range c.Runtimes() {
		rt.Register(1, func(ctx *core.Ctx, arg []byte) {
			ctx.Object().(*ballastObj).N++
		})
	}
	var ptrs []core.MobilePtr
	for i := 0; i < 8; i++ {
		ptrs = append(ptrs, c.RT(i%2).CreateObject(&ballastObj{Data: make([]byte, 1000)}))
	}
	for round := 0; round < 4; round++ {
		for _, p := range ptrs {
			c.RT(0).Post(p, 1, nil)
		}
		c.Wait()
	}
	if s := c.MemStats(); s.Evictions == 0 {
		t.Error("expected evictions under the tiny budget")
	}
	// Evicted blobs must have reached the remote server, and only it.
	if st := c.MemoryServer().Stats(); st.Puts == 0 {
		t.Errorf("memory server saw no puts: %+v", st)
	}
	if d := c.DiskStats(); d.Puts != 0 {
		t.Errorf("unbounded lease spilled to disk: %+v", d)
	}
	// State integrity across remote swapping.
	got := make(chan int64, 1)
	for _, rt := range c.Runtimes() {
		rt.Register(2, func(ctx *core.Ctx, arg []byte) {
			got <- ctx.Object().(*ballastObj).N
		})
	}
	for _, p := range ptrs {
		c.RT(int(p.Home)).Post(p, 2, nil)
		if v := <-got; v != 4 {
			t.Fatalf("object %v count = %d, want 4", p, v)
		}
	}
}

func TestClusterTiered(t *testing.T) {
	// Remote memory composed WITH disk: a small tier-0 lease forces part of
	// the working set onto the disk backstop, with spills instead of errors.
	dir := t.TempDir()
	c, err := New(Config{
		Nodes:        2,
		MemBudget:    3000,
		RemoteMemory: true,
		Tier:         &TierSpec{Capacity: 2500},
		SpoolDir:     dir,
		Factory:      ballastFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.MemoryServer() == nil {
		t.Fatal("memory server missing")
	}
	if len(c.Tiers()) != 2 {
		t.Fatalf("want one tiered store per node, got %d", len(c.Tiers()))
	}
	for _, rt := range c.Runtimes() {
		rt.Register(1, func(ctx *core.Ctx, arg []byte) {
			ctx.Object().(*ballastObj).N++
		})
	}
	var ptrs []core.MobilePtr
	for i := 0; i < 8; i++ {
		ptrs = append(ptrs, c.RT(i%2).CreateObject(&ballastObj{Data: make([]byte, 1000)}))
	}
	for round := 0; round < 4; round++ {
		for _, p := range ptrs {
			c.RT(0).Post(p, 1, nil)
		}
		c.Wait()
	}
	if s := c.MemStats(); s.Evictions == 0 {
		t.Error("expected evictions under the tiny budget")
	}
	if s := c.SwapStats(); s.ObjectsLost != 0 {
		t.Errorf("objects lost: %+v", s)
	}
	ts := c.TierStats()
	if ts.FastPuts == 0 {
		t.Errorf("no writes admitted to tier 0: %+v", ts)
	}
	if ts.Spills == 0 {
		t.Errorf("no spills despite the working set exceeding the lease: %+v", ts)
	}
	// The server-side lease (sum of node leases) must hold.
	if st := c.MemoryServer().Stats(); st.Capacity != 2*2500 || st.BytesResident > st.Capacity {
		t.Errorf("server lease: %+v", st)
	}
	// State integrity across tiered swapping.
	got := make(chan int64, 1)
	for _, rt := range c.Runtimes() {
		rt.Register(2, func(ctx *core.Ctx, arg []byte) {
			got <- ctx.Object().(*ballastObj).N
		})
	}
	for _, p := range ptrs {
		c.RT(int(p.Home)).Post(p, 2, nil)
		if v := <-got; v != 4 {
			t.Fatalf("object %v count = %d, want 4", p, v)
		}
	}
	c.Wait()
	for i, s := range c.Tiers() {
		s.WaitIdle()
		if msgs := s.CheckInvariants(true); len(msgs) > 0 {
			t.Errorf("node %d tier invariants: %v", i, msgs)
		}
	}
}

func TestClusterTieredChargesDiskTime(t *testing.T) {
	// Regression: cluster.New used to drop the disk service-time model
	// whenever RemoteMemory was set. With tiering the disk tier keeps its
	// LatencyClock wrapper, so a run that overflows tier 0 charges disk
	// time.
	vclk := clock.NewVirtual()
	c, err := New(Config{
		Nodes:        2,
		MemBudget:    3000,
		RemoteMemory: true,
		Tier:         &TierSpec{Capacity: 2000},
		Disk:         storage.DiskModel{Seek: 2 * time.Millisecond, BytesPerSec: 10 << 20},
		Factory:      ballastFactory,
		Clock:        vclk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, rt := range c.Runtimes() {
		rt.Register(1, func(ctx *core.Ctx, arg []byte) {
			ctx.Object().(*ballastObj).N++
		})
	}
	var ptrs []core.MobilePtr
	for i := 0; i < 8; i++ {
		ptrs = append(ptrs, c.RT(i%2).CreateObject(&ballastObj{Data: make([]byte, 1000)}))
	}
	for round := 0; round < 4; round++ {
		for _, p := range ptrs {
			c.RT(0).Post(p, 1, nil)
		}
		c.Wait()
	}
	if ts := c.TierStats(); ts.Spills == 0 && ts.Demotions == 0 {
		t.Fatalf("working set never reached the disk tier: %+v", ts)
	}
	if r := c.Report(); r.Disk <= 0 {
		t.Errorf("tiered run charged no disk time: %+v", r)
	}
}
