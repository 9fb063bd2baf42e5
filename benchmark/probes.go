package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mrts/internal/bufpool"
	"mrts/internal/cluster"
	"mrts/internal/comm"
	"mrts/internal/core"
	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/meshstore"
	"mrts/internal/ooc"
	"mrts/internal/remotemem"
	"mrts/internal/sched"
	"mrts/internal/storage"
	"mrts/internal/swapio"
	"mrts/internal/tier"
	"mrts/internal/workload"
)

// The layer probes drive each layer's exported API directly, one layer at a
// time, from a single goroutine unless the API needs two endpoints. Their
// inputs are one seeded 64 KiB blob and one refined block mesh.

const probeBlobSize = 64 << 10

// probe is one group of layer probes.
type probe struct {
	name string
	run  func(p *probeCtx) error
}

var probes = []probe{
	{"mesh+delaunay", probeMesh},
	{"storage", probeStorage},
	{"swapio", probeSwapio},
	{"tier", probeTier},
	{"remotemem", probeRemotemem},
	{"comm.inproc", probeCommInProc},
	{"comm.tcp", probeCommTCP},
	{"core", probeCore},
	{"sched", probeSched},
	{"ooc", probeOOC},
	{"bufpool", probeBufpool},
	{"meshstore", probeMeshstore},
}

// probeCtx is what every probe shares.
type probeCtx struct {
	sz   sizes
	seed int64
	blob []byte // mid-entropy, like an encoded mesh: flate shrinks it, not to nothing
	dir  string // scratch directory, removed afterwards
	out  map[string]float64
}

// runProbes runs every probe group. A group that fails is reported on
// standard error and leaves its metrics unset; the others still run.
func runProbes(e env) (map[string]float64, error) {
	dir, cleanup, err := scratchDir(e, "probes-")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	p := &probeCtx{sz: e.sizes(), seed: e.seed, dir: dir, out: map[string]float64{}}
	rng := rand.New(rand.NewSource(e.seed))
	p.blob = make([]byte, probeBlobSize)
	for i := 0; i < len(p.blob); i += 8 {
		binary.LittleEndian.PutUint64(p.blob[i:], rng.Uint64()&0x3f3f3f3f3f3f3f3f)
	}
	for _, pr := range probes {
		if err := pr.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: probe %s failed: %v\n", pr.name, err)
		}
	}
	return p.out, nil
}

// perOp calls op again and again for about the probe budget and returns the
// mean time of one call. The first error stops it.
func (p *probeCtx) perOp(op func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		n += batch
		if el := time.Since(start); el >= p.sz.probeBudget {
			return el / time.Duration(n), nil
		}
	}
}

// record times op with perOp and stores the mean of one call under name, in
// the given unit.
func (p *probeCtx) record(name string, unit time.Duration, op func() error) error {
	d, err := p.perOp(op)
	if err != nil {
		return err
	}
	p.out[name] = in(d, unit)
	return nil
}

// in expresses a duration in the given unit.
func in(d, unit time.Duration) float64 { return float64(d) / float64(unit) }

// mbPerS is the rate of moving size bytes once per d.
func mbPerS(size int, d time.Duration) float64 { return ratio(mb(int64(size)), d.Seconds()) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeMesh builds and refines one block to the configured element count,
// then encodes, decodes and inserts into it.
func probeMesh(p *probeCtx) error {
	h := workload.UniformSizeFor(p.sz.probeRefineElems, 1.0)
	before, start := mallocs(), time.Now()
	m, _, err := delaunay.BuildCDT(workload.UnitSquare())
	if err != nil {
		return err
	}
	if _, err := delaunay.Refine(m, delaunay.Options{MaxArea: h * h * math.Sqrt(3) / 4}); err != nil {
		return err
	}
	refine, allocs := time.Since(start), mallocs()-before
	elems := m.NumTriangles()
	p.out["delaunay.refine_elems_per_s"] = ratio(float64(elems), refine.Seconds())
	p.out["delaunay.allocs_per_elem"] = ratio(float64(allocs), float64(elems))

	var enc bytes.Buffer
	enc.Grow(m.EncodedSize())
	d, err := p.perOp(func() error {
		enc.Reset()
		return m.EncodeTo(&enc)
	})
	if err != nil {
		return err
	}
	p.out["mesh.encode_mb_s"] = mbPerS(enc.Len(), d)
	p.out["mesh.encoded_bytes_per_elem"] = ratio(float64(enc.Len()), float64(elems))
	dec := mesh.New()
	d, err = p.perOp(func() error {
		dec = mesh.New()
		return dec.DecodeFrom(bytes.NewReader(enc.Bytes()))
	})
	if err != nil {
		return err
	}
	p.out["mesh.decode_mb_s"] = mbPerS(enc.Len(), d)

	// Insertions walk the domain in short steps with the last triangle as
	// the location hint, as refinement does.
	rng := rand.New(rand.NewSource(p.seed))
	at, hint := geom.Pt(0.5, 0.5), mesh.NoTri
	if err := p.record("mesh.insert_ns", time.Nanosecond, func() error {
		at = geom.Pt(clamp01(at.X+(rng.Float64()-0.5)*0.02), clamp01(at.Y+(rng.Float64()-0.5)*0.02))
		v, err := dec.InsertPoint(at, hint)
		if err != nil && err != mesh.ErrDuplicate {
			return err
		}
		hint = dec.IncidentTri(v)
		return nil
	}); err != nil {
		return err
	}
	return nil
}

func clamp01(x float64) float64 { return math.Min(0.999, math.Max(0.001, x)) }

// probeKeys are the keys the store probes cycle over.
func probeKeys(n int) []storage.Key {
	keys := make([]storage.Key, n)
	for i := range keys {
		keys[i] = storage.Key(fmt.Sprintf("probe-%d", i))
	}
	return keys
}

// cycle returns a function handing out keys round robin.
func cycle(keys []storage.Key) func() storage.Key {
	i := 0
	return func() storage.Key {
		k := keys[i%len(keys)]
		i++
		return k
	}
}

func probeStorage(p *probeCtx) error {
	keys := probeKeys(64)
	file, err := storage.NewFile(filepath.Join(p.dir, "file"))
	if err != nil {
		return err
	}
	defer file.Close()
	next := cycle(keys)
	if err := p.record("storage.file_put_us", time.Microsecond, func() error { return file.Put(next(), p.blob) }); err != nil {
		return err
	}
	for _, k := range keys {
		if err := file.Put(k, p.blob); err != nil {
			return err
		}
	}
	if err := p.record("storage.file_get_us", time.Microsecond, func() error {
		_, err := file.Get(next())
		return err
	}); err != nil {
		return err
	}
	if err := p.record("storage.file_getbuf_us", time.Microsecond, func() error {
		b, err := file.GetBuf(next())
		if err == nil {
			file.ReleaseBuf(b)
		}
		return err
	}); err != nil {
		return err
	}

	// The mapped store reads the same directory through mmap.
	mapped, err := storage.NewFileStoreMapped(filepath.Join(p.dir, "file"))
	if err != nil {
		return err
	}
	defer mapped.Close()
	if err := p.record("storage.mapped_getbuf_us", time.Microsecond, func() error {
		b, err := mapped.GetBuf(next())
		if err == nil {
			mapped.ReleaseBuf(b)
		}
		return err
	}); err != nil {
		return err
	}

	mem := storage.NewMem()
	if err := p.record("storage.mem_put_us", time.Microsecond, func() error { return mem.Put(next(), p.blob) }); err != nil {
		return err
	}

	big := bytes.Repeat(p.blob, (1<<20)/len(p.blob))
	d, err := p.perOp(func() error { return file.Put("probe-big", big) })
	if err != nil {
		return err
	}
	p.out["storage.file_put_mb_s"] = mbPerS(len(big), d)
	return nil
}

// probeSwapio drives the I/O scheduler over a memory store at demand class,
// one request at a time.
func probeSwapio(p *probeCtx) error {
	s := swapio.New(storage.NewMem(), swapio.Config{Workers: 1})
	defer s.Close()
	keys := probeKeys(64)
	next := cycle(keys)
	done := make(chan error, 1)
	encode := func() ([]byte, error) {
		w := bufpool.GetWriter(len(p.blob))
		w.Write(p.blob)
		blob := w.Detach()
		bufpool.PutWriter(w)
		return blob, nil
	}
	store := func() error {
		if !s.Store(next(), 0, encode, nil, func(_ int, err error) { done <- err }) {
			return storage.ErrClosed
		}
		return <-done
	}
	load := func() error {
		if !s.Load(next(), 0, swapio.Demand, func(_ []byte, err error) { done <- err }) {
			return storage.ErrClosed
		}
		return <-done
	}
	for range keys {
		if err := store(); err != nil {
			return err
		}
	}
	if err := p.record("swapio.store_us", time.Microsecond, store); err != nil {
		return err
	}
	if err := p.record("swapio.load_us", time.Microsecond, load); err != nil {
		return err
	}

	const ops = 512
	before := mallocs()
	for i := 0; i < ops/2; i++ {
		if err := store(); err != nil {
			return err
		}
		if err := load(); err != nil {
			return err
		}
	}
	p.out["swapio.allocs_per_op"] = float64(mallocs()-before) / ops
	return nil
}

func probeTier(p *probeCtx) error {
	keys := probeKeys(64)
	next := cycle(keys)
	// Everything fits tier 0: puts and gets are served by the fast store.
	fast, err := tier.New(tier.Config{Fast: storage.NewMem(), Slow: storage.NewMem(), Capacity: -1})
	if err != nil {
		return err
	}
	defer fast.Close()
	if err := p.record("tier.put_us", time.Microsecond, func() error { return fast.Put(next(), p.blob) }); err != nil {
		return err
	}
	for _, k := range keys {
		if err := fast.Put(k, p.blob); err != nil {
			return err
		}
	}
	get := func(s *tier.Store) func() error {
		return func() error {
			b, err := s.Get(next())
			if err == nil {
				storage.ReleaseBuf(s, b)
			}
			return err
		}
	}
	if err := p.record("tier.get_fast_us", time.Microsecond, get(fast)); err != nil {
		return err
	}

	// No tier 0 and no frame cache: every byte goes through the codec to
	// the slow store and back.
	slow, err := tier.New(tier.Config{Slow: storage.NewMem(), Compress: &tier.CompressConfig{}})
	if err != nil {
		return err
	}
	defer slow.Close()
	if _, err := p.perOp(func() error { return slow.Put(next(), p.blob) }); err != nil {
		return err
	}
	for _, k := range keys {
		if err := slow.Put(k, p.blob); err != nil {
			return err
		}
	}
	written, _ := slow.CompressStats()
	if err := p.record("tier.get_slow_us", time.Microsecond, get(slow)); err != nil {
		return err
	}
	read, _ := slow.CompressStats()
	gets := read.CacheHits + read.CacheMisses - written.CacheHits - written.CacheMisses
	p.out["tier.compress_mb_s"] = ratio(mb(written.RawBytes), float64(written.EncodeNanos)/1e9)
	p.out["tier.decompress_mb_s"] = ratio(mb(gets*uint64(len(p.blob))), float64(read.DecodeNanos-written.DecodeNanos)/1e9)
	return nil
}

func probeRemotemem(p *probeCtx) error {
	tr := comm.NewInProc(2, comm.LatencyModel{})
	defer tr.Close()
	remotemem.NewServer(tr.Endpoint(1))
	client := remotemem.NewClient(tr.Endpoint(0), 1)
	defer client.Close()
	keys := probeKeys(64)
	next := cycle(keys)
	if err := p.record("remotemem.put_us", time.Microsecond, func() error { return client.Put(next(), p.blob) }); err != nil {
		return err
	}
	for _, k := range keys {
		if err := client.Put(k, p.blob); err != nil {
			return err
		}
	}
	if err := p.record("remotemem.get_us", time.Microsecond, func() error {
		b, err := client.Get(next())
		if err == nil {
			client.ReleaseBuf(b)
		}
		return err
	}); err != nil {
		return err
	}
	return nil
}

// Handler ids of the transport probes.
const (
	probePing uint32 = 0xB001
	probePong uint32 = 0xB002
	probeSink uint32 = 0xB003
)

// probeTransport measures a two-endpoint transport: the round trip of an
// empty message, and a one-way stream of payload-sized messages.
func probeTransport(p *probeCtx, tr comm.Transport, payload []byte) (rtt, perMsg time.Duration, err error) {
	a, b := tr.Endpoint(0), tr.Endpoint(1)
	pong := make(chan struct{}, 1)
	var sendErr atomic.Value
	b.Register(probePing, func(comm.Message) {
		if err := b.Send(0, probePong, nil); err != nil {
			sendErr.Store(err)
			pong <- struct{}{}
		}
	})
	a.Register(probePong, func(comm.Message) { pong <- struct{}{} })
	var received atomic.Int64
	arrived := make(chan struct{}, 1)
	var want int64
	b.Register(probeSink, func(comm.Message) {
		if received.Add(1) == want {
			arrived <- struct{}{}
		}
	})

	rtt, err = p.perOp(func() error {
		if err := a.Send(1, probePing, nil); err != nil {
			return err
		}
		<-pong
		if e, _ := sendErr.Load().(error); e != nil {
			return e
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}

	// One batch sized from the round trip so the stream lasts about the
	// probe budget; the receiver signals when the last message arrives.
	want = int64(p.sz.probeBudget/rtt) + 1
	start := time.Now()
	for i := int64(0); i < want; i++ {
		if err := a.Send(1, probeSink, payload); err != nil {
			return 0, 0, err
		}
	}
	<-arrived
	return rtt, time.Since(start) / time.Duration(want), nil
}

func probeCommInProc(p *probeCtx) error {
	tr := comm.NewInProc(2, comm.LatencyModel{})
	defer tr.Close()
	rtt, perMsg, err := probeTransport(p, tr, nil)
	if err != nil {
		return err
	}
	p.out["comm.inproc_rtt_us"] = in(rtt, time.Microsecond)
	p.out["comm.inproc_msgs_per_s"] = ratio(1, perMsg.Seconds())
	return nil
}

// probeCommTCP is the only place the loopback TCP transport is exercised: no
// workload uses it.
func probeCommTCP(p *probeCtx) error {
	tr, err := comm.NewTCP(2)
	if err != nil {
		return err
	}
	defer tr.Close()
	rtt, perMsg, err := probeTransport(p, tr, p.blob)
	if err != nil {
		return err
	}
	p.out["comm.tcp_rtt_us"] = in(rtt, time.Microsecond)
	p.out["comm.tcp_mb_s"] = mbPerS(len(p.blob), perMsg)
	return nil
}

// probeCore posts to an empty handler of an in-core object: a pipelined
// batch from the object's own node, and one message at a time from the
// other node.
func probeCore(p *probeCtx) error {
	cl, err := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1, MemBudget: 1 << 20, Factory: churnFactory})
	if err != nil {
		return err
	}
	defer cl.Close()
	const hNop core.HandlerID = 0xB0B0
	handled := make(chan struct{}, 1)
	var signal atomic.Bool
	for _, rt := range cl.Runtimes() {
		rt.Register(hNop, func(*core.Ctx, []byte) {
			if signal.Load() {
				handled <- struct{}{}
			}
		})
	}
	ptr := cl.RT(0).CreateObject(&churnObj{})

	const batch = 4096
	start, n := time.Now(), 0
	for time.Since(start) < p.sz.probeBudget {
		for i := 0; i < batch; i++ {
			cl.RT(0).Post(ptr, hNop, nil)
		}
		cl.Wait()
		n += batch
	}
	p.out["core.post_local_ns"] = in(time.Since(start)/time.Duration(n), time.Nanosecond)

	signal.Store(true)
	if err := p.record("core.post_remote_us", time.Microsecond, func() error {
		cl.RT(1).Post(ptr, hNop, nil)
		<-handled
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// probeSched spawns empty subtasks from inside one task of a 2-worker pool.
func probeSched(p *probeCtx) error {
	spawn := func(pool sched.Pool) time.Duration {
		defer pool.Close()
		const batch = 4096
		start, n := time.Now(), 0
		for time.Since(start) < p.sz.probeBudget {
			pool.Submit(func(c *sched.Ctx) {
				for i := 0; i < batch; i++ {
					c.Spawn(func(*sched.Ctx) {})
				}
			})
			pool.Wait()
			n += batch
		}
		return time.Since(start) / time.Duration(n)
	}
	p.out["sched.ws_spawn_ns"] = in(spawn(sched.NewWorkStealingSeeded(2, p.seed)), time.Nanosecond)
	p.out["sched.gq_spawn_ns"] = in(spawn(sched.NewGlobalQueue(2)), time.Nanosecond)
	return nil
}

func probeOOC(p *probeCtx) error {
	n := p.sz.probeVictimObjects
	m := ooc.NewManager(ooc.Config{Budget: int64(n) * probeBlobSize})
	for i := 0; i < n; i++ {
		if err := m.Register(ooc.ObjectID(i), probeBlobSize); err != nil {
			return err
		}
	}
	i := 0
	if err := p.record("ooc.touch_ns", time.Nanosecond, func() error {
		m.Touch(ooc.ObjectID(i % n))
		i++
		return nil
	}); err != nil {
		return err
	}
	if err := p.record("ooc.pick_victims_us", time.Microsecond, func() error {
		if len(m.PickVictims(8*probeBlobSize)) == 0 {
			return fmt.Errorf("no victims among %d in-core objects", n)
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

func probeBufpool(p *probeCtx) error {
	if err := p.record("bufpool.getput_ns", time.Nanosecond, func() error {
		bufpool.Put(bufpool.Get(probeBlobSize))
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// probeMeshstore appends the blob as every block of a grid through a
// compressing chunk writer, then reads every block back through the index.
func probeMeshstore(p *probeCtx) error {
	const grid = 8
	dir := filepath.Join(p.dir, "meshstore")
	w, err := meshstore.NewWriter(meshstore.WriterConfig{
		Dir: dir, Meta: meshstore.Meta{Blocks: grid, TargetElements: grid * grid}, Compress: true,
	})
	if err != nil {
		return err
	}
	defer w.Close()
	start := time.Now()
	for j := 0; j < grid; j++ {
		for i := 0; i < grid; i++ {
			if err := w.Append(meshstore.BlockKey(i, j), i, j, 1, "probe", p.blob); err != nil {
				return err
			}
		}
	}
	if _, err := w.Finalize(); err != nil {
		return err
	}
	p.out["meshstore.append_mb_s"] = mbPerS(grid*grid*len(p.blob), time.Since(start))
	if _, err := meshstore.MergeManifests(dir); err != nil {
		return err
	}
	st, err := meshstore.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	k := 0
	d, err := p.perOp(func() error {
		_, _, err := st.Payload(meshstore.BlockKey(k%grid, k/grid%grid))
		k++
		return err
	})
	if err != nil {
		return err
	}
	p.out["meshstore.payload_mb_s"] = mbPerS(len(p.blob), d)
	return nil
}
