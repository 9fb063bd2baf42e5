package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/obs"
)

// swap-churn: synthetic mobile objects whose handler does almost nothing, so
// that nearly all of every touch is the runtime's swap path.

const (
	typeChurn   uint16         = 0xC401
	hTouch      core.HandlerID = 0xC401
	hReport     core.HandlerID = 0xC402
	churnNodes                 = 2
	churnClient                = 2 // closed-loop clients, one per node
)

// churnObj is a payload with the checksum it was created with and a count
// of the touches it has received; all three survive eviction and reload.
type churnObj struct {
	payload []byte
	sum     uint64
	touches uint64
	// verified says the payload has been checked against sum since it last
	// came out of the store. Bytes can only change on their way through the
	// swap path, so one check per reload covers every touch, and a touch
	// that finds the object in core costs the handler next to nothing.
	verified bool
}

// intact checks the payload against its checksum, once per reload.
func (o *churnObj) intact() bool {
	if !o.verified {
		o.verified = checksum(o.payload) == o.sum
	}
	return o.verified
}

func (o *churnObj) TypeID() uint16 { return typeChurn }
func (o *churnObj) SizeHint() int  { return len(o.payload) + 20 }

func (o *churnObj) EncodeTo(w io.Writer) error {
	var head [20]byte
	binary.LittleEndian.PutUint64(head[0:], o.sum)
	binary.LittleEndian.PutUint64(head[8:], o.touches)
	binary.LittleEndian.PutUint32(head[16:], uint32(len(o.payload)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(o.payload)
	return err
}

func (o *churnObj) DecodeFrom(r io.Reader) error {
	var head [20]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return err
	}
	o.sum = binary.LittleEndian.Uint64(head[0:])
	o.touches = binary.LittleEndian.Uint64(head[8:])
	n := binary.LittleEndian.Uint32(head[16:])
	if n > 1<<24 {
		return fmt.Errorf("churn object: payload length %d out of range", n)
	}
	o.payload = make([]byte, n)
	_, err := io.ReadFull(r, o.payload)
	return err
}

func churnFactory(typeID uint16) (core.Object, error) {
	if typeID != typeChurn {
		return nil, core.ErrUnknownType
	}
	return &churnObj{}, nil
}

// checksum is FNV-1a over the payload's 64-bit words in four independent
// lanes (the payload length is a multiple of 32).
func checksum(p []byte) uint64 {
	const prime = 1099511628211
	h := [4]uint64{14695981039346656037, 14695981039346656037 ^ 1, 14695981039346656037 ^ 2, 14695981039346656037 ^ 3}
	for ; len(p) >= 32; p = p[32:] {
		h[0] = (h[0] ^ binary.LittleEndian.Uint64(p[0:])) * prime
		h[1] = (h[1] ^ binary.LittleEndian.Uint64(p[8:])) * prime
		h[2] = (h[2] ^ binary.LittleEndian.Uint64(p[16:])) * prime
		h[3] = (h[3] ^ binary.LittleEndian.Uint64(p[24:])) * prime
	}
	return ((h[0]*prime^h[1])*prime^h[2])*prime ^ h[3]
}

// churnInputs are everything random about a run, a function of the seed
// alone. Payloads are generated one at a time while the objects are created,
// so the process never holds more of them than the runtime keeps in core.
type churnInputs struct {
	sizes    []int
	payloads *rand.Rand // draws the payload bytes, in object order
	// warm and timed hold, per client, the object indices it touches.
	warm, timed [churnClient][]int
}

func newChurnInputs(sz sizes, seed int64) churnInputs {
	rng := rand.New(rand.NewSource(seed))
	in := churnInputs{sizes: make([]int, sz.churnObjects), payloads: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for i := range in.sizes {
		in.sizes[i] = (sz.churnMinB + rng.Intn(sz.churnMaxB-sz.churnMinB)) &^ 31
	}
	// Zipf rank k is object perm[k], so the hot objects are spread over
	// both nodes.
	perm := rng.Perm(sz.churnObjects)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(sz.churnObjects-1))
	draw := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = perm[zipf.Uint64()]
		}
		return out
	}
	for c := 0; c < churnClient; c++ {
		in.warm[c] = draw(sz.churnWarm / churnClient)
		in.timed[c] = draw(sz.churnOps / churnClient)
	}
	return in
}

// nextPayload generates the next object's payload: six random bits per
// byte, so flate would shrink it, but not to nothing, like an encoded mesh.
func (in *churnInputs) nextPayload(size int) []byte {
	p := make([]byte, size)
	for j := 0; j < len(p); j += 8 {
		binary.LittleEndian.PutUint64(p[j:], in.payloads.Uint64()&0x3f3f3f3f3f3f3f3f)
	}
	return p
}

// churnRig is the cluster and the plumbing between handlers and clients.
type churnRig struct {
	cl   *cluster.Cluster
	ptrs []core.MobilePtr
	// done[c] carries the checksum verdict of client c's outstanding touch.
	done [churnClient]chan bool
	// reports carries one (touches, verdict) pair per object of the final
	// sweep.
	reports chan churnReport
	// abort is closed when an object is lost: its queued touches will never
	// complete, so the clients must stop waiting.
	abort     chan struct{}
	abortOnce sync.Once
}

type churnReport struct {
	touches uint64
	ok      bool
}

func newChurnRig(e env, in *churnInputs, spool string, sink *obs.TraceSink) (*churnRig, error) {
	rig := &churnRig{
		reports: make(chan churnReport, len(in.sizes)),
		abort:   make(chan struct{}),
	}
	for c := range rig.done {
		rig.done[c] = make(chan bool, 1)
	}
	var total int64
	for _, n := range in.sizes {
		total += int64(n)
	}
	budget := total / 8 / churnNodes
	cl, err := cluster.New(cluster.Config{
		Nodes: churnNodes, WorkersPerNode: 1,
		MemBudget: budget,
		SpoolDir:  spool,
		Factory:   churnFactory,
		Seed:      e.seed,
		Trace:     sink,
		OnSwapError: func(node int, se core.SwapError) {
			if se.Lost {
				rig.abortOnce.Do(func() { close(rig.abort) })
			}
		},
	})
	if err != nil {
		return nil, err
	}
	rig.cl = cl
	for _, rt := range cl.Runtimes() {
		rt.Register(hTouch, func(c *core.Ctx, arg []byte) {
			o := c.Object().(*churnObj)
			o.touches++
			rig.done[arg[0]] <- o.intact()
		})
		rt.Register(hReport, func(c *core.Ctx, arg []byte) {
			o := c.Object().(*churnObj)
			rig.reports <- churnReport{touches: o.touches, ok: o.intact()}
		})
	}
	// Objects are created no faster than the runtime evicts them: creation
	// racing ahead of the asynchronous evictions would make the process's
	// peak memory a property of that race and not of the runtime.
	rig.ptrs = make([]core.MobilePtr, len(in.sizes))
	for i, n := range in.sizes {
		rt := cl.RT(i % churnNodes)
		for rt.Mem().MemUsed() > budget {
			time.Sleep(50 * time.Microsecond)
		}
		p := in.nextPayload(n)
		rig.ptrs[i] = rt.CreateObject(&churnObj{payload: p, sum: checksum(p), verified: true})
	}
	return rig, nil
}

// touchOutcome is what one closed-loop pass observed.
type touchOutcome struct {
	completed, mismatched int
	latencyMS             []float64
}

// drive runs the closed loop: each client posts its next touch from its own
// node only after the previous one's handler has finished.
func (rig *churnRig) drive(seqs [churnClient][]int, timed bool) touchOutcome {
	var outs [churnClient]touchOutcome
	var wg sync.WaitGroup
	for c := 0; c < churnClient; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			if timed {
				out.latencyMS = make([]float64, 0, len(seqs[c]))
			}
			rt := rig.cl.RT(c % churnNodes)
			arg := []byte{byte(c)}
			for _, obj := range seqs[c] {
				t := time.Now()
				rt.Post(rig.ptrs[obj], hTouch, arg)
				select {
				case ok := <-rig.done[c]:
					if !ok {
						out.mismatched++
					}
				case <-rig.abort:
					return
				}
				out.completed++
				if timed {
					out.latencyMS = append(out.latencyMS, float64(time.Since(t))/1e6)
				}
			}
		}(c)
	}
	wg.Wait()
	var sum touchOutcome
	for _, o := range outs {
		sum.add(o)
	}
	return sum
}

func (o *touchOutcome) add(more touchOutcome) {
	o.completed += more.completed
	o.mismatched += more.mismatched
	o.latencyMS = append(o.latencyMS, more.latencyMS...)
}

// segment returns the i-th of n equal parts of every client's sequence.
func segment(seqs [churnClient][]int, i, n int) [churnClient][]int {
	var part [churnClient][]int
	for c, seq := range seqs {
		per := len(seq) / n
		part[c] = seq[i*per : (i+1)*per]
	}
	return part
}

// sweep asks every object for its touch count and a last checksum verdict.
// Objects lost to the swap path never answer.
func (rig *churnRig) sweep() (touches uint64, mismatched, answered int) {
	for _, p := range rig.ptrs {
		rig.cl.RT(int(p.Home)).Post(p, hReport, nil)
	}
	rig.cl.Wait()
	for {
		select {
		case rep := <-rig.reports:
			answered++
			touches += rep.touches
			if !rep.ok {
				mismatched++
			}
		default:
			return touches, mismatched, answered
		}
	}
}

func runChurn(e env, log *spanLog, sink *obs.TraceSink) (*runResult, error) {
	return runChurnOn(e, log, sink, false, nil)
}

// runChurnOn is runChurn with two things for the smoke test: a file spool
// wherever the spool directory is, and a hook between warm-up and the timed
// touches, where the test damages a spooled blob.
func runChurnOn(e env, log *spanLog, sink *obs.TraceSink, forceFiles bool, afterWarm func(rig *churnRig, spool string) error) (*runResult, error) {
	sz := e.sizes()
	r := &runResult{Attempted: sz.churnOps, Layer: map[string]float64{}}

	setup := log.begin("setup", 0)
	in := newChurnInputs(sz, e.seed)
	spool, cleanup, err := spoolDir(e, forceFiles)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	t := time.Now()
	rig, err := newChurnRig(e, &in, spool, sink)
	if err != nil {
		return nil, err
	}
	r.Layer["cluster.new_s"] = time.Since(t).Seconds()
	warm := rig.drive(in.warm, false)
	rig.cl.Wait()
	r.SetupS = log.end(setup).Seconds()
	if afterWarm != nil {
		if err := afterWarm(rig, spool); err != nil {
			rig.cl.Close()
			return nil, err
		}
	}

	// The timed touches run as equal segments with both clients joined in
	// between, and every segment's time, scaled to the whole loop, is one
	// sample of wall_s: a burst of interference from the host then spoils a
	// few samples and not the run.
	var timed touchOutcome
	runSpan, err := measure(r, log, func(int) {
		for i := 0; i < sz.churnSegments; i++ {
			t := time.Now()
			timed.add(rig.drive(segment(in.timed, i, sz.churnSegments), true))
			r.Walls = append(r.Walls, time.Since(t).Seconds()*float64(sz.churnSegments))
		}
	})
	counted, sweepMismatched, answered := rig.sweep()
	finishCluster(r, rig.cl, log, sink, runSpan)
	if err != nil {
		return nil, err
	}

	r.Items = float64(timed.completed)
	posted := warm.completed + timed.completed
	r.Layer["ooc.hit_ratio"] = 1 - ratio(r.Layer["ooc.loads"], float64(posted))
	r.Layer["op_p50_ms"], _ = tailValue(timed.latencyMS, 50)
	r.Layer["op_p99_ms"], _ = tailValue(timed.latencyMS, 99)

	if n := r.Attempted - timed.completed; n > 0 {
		r.Failed += n
		r.Failures = append(r.Failures, fmt.Sprintf("%d touches never completed", n))
	}
	if n := timed.mismatched + warm.mismatched + sweepMismatched; n > 0 {
		r.Failed += n
		r.Failures = append(r.Failures, fmt.Sprintf("%d checksum mismatches", n))
	}
	if counted != uint64(posted) {
		r.fail("objects counted %d touches, %d were completed", counted, posted)
	}
	if answered != len(rig.ptrs) {
		r.fail("%d of %d objects answered the final sweep", answered, len(rig.ptrs))
	}
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	return r, nil
}
