package core

import (
	"encoding/binary"
	"sync"
	"time"

	"mrts/internal/comm"
)

// This file implements distributed termination detection over the transport
// itself — the paper's control layer detects "when no message handlers are
// executing and no messages are being delivered" without a shared-memory
// oracle. The algorithm is the classic double-count (Mattern's four-counter
// method): a coordinator polls every node for (work, sent, received); if two
// consecutive polls return identical, balanced totals, no message can have
// been in flight between them, and the coordinator announces termination.
//
// It is also a barrier: the coordinator announces only after two identical
// balanced counts in which every node reported itself inside
// WaitTermination. A node that has not entered yet may still post work, so
// a count without it proves nothing; an announcement it has no waiter for
// would be recorded as its next entry point and strand it. Each reply also
// carries the node's latest announced generation, and the coordinator
// announces one past the newest it saw, so a node restarted with a fresh
// runtime (generation 0) and a cluster that has run many phases meet again:
// a waiter is released by any announcement newer than the generation it
// entered at.
//
// WaitQuiescence (runtime.go) is the driver-level shortcut usable because
// all simulated nodes share one process; WaitTermination is the faithful
// message-based protocol, used the same way from every node (SPMD).

// Wire kinds for termination detection.
const (
	wireTermProbe    uint32 = 6 // coordinator -> node: report your counters
	wireTermReply    uint32 = 7 // node -> coordinator: (epoch, work, sent, recv, waiting, gen)
	wireTermAnnounce uint32 = 8 // coordinator -> node: generation terminated
)

// termState tracks a node's participation in distributed termination.
type termState struct {
	mu        sync.Mutex
	announced uint64 // latest terminated generation
	waiters   []chan struct{}

	// Coordinator state (node 0 only).
	replyCh chan termReply
}

type termReply struct {
	epoch   uint64
	work    int64
	sent    int64
	recv    int64
	waiting bool
	gen     uint64
}

// termCount is one probe round's tally: the summed counters, whether every
// node was waiting, and the newest generation any node had seen.
type termCount struct {
	work, sent, recv int64
	allWaiting       bool
	gen              uint64
}

func newTermState() *termState {
	return &termState{replyCh: make(chan termReply, 64)}
}

// status is this node's part of a probe reply.
func (ts *termState) status() (waiting bool, gen uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.waiters) > 0, ts.announced
}

// WaitTermination blocks until the coordinator (node 0) announces a
// termination generation newer than the one observed at entry. Every node of
// the cluster must call it (SPMD); node 0 additionally runs the coordinator
// until its own wait is satisfied. numNodes is the cluster size. No node
// returns before every node has entered and all their work is done.
//
// The protocol works for repeated phases: post more work after it returns
// and call it again.
func (rt *Runtime) WaitTermination(numNodes int) {
	ts := rt.term
	ts.mu.Lock()
	entryGen := ts.announced
	ch := make(chan struct{})
	ts.waiters = append(ts.waiters, ch)
	ts.mu.Unlock()

	if rt.node == 0 {
		rt.coordinate(numNodes, entryGen)
	}
	<-ch
}

// coordinate polls all nodes until two identical balanced counts with every
// node waiting, then announces one generation past the newest any node
// reported to everyone (including itself).
func (rt *Runtime) coordinate(numNodes int, entryGen uint64) {
	ts := rt.term
	epoch := entryGen << 20 // epochs namespaced per generation
	var prev *termCount
	for {
		// Already announced by a concurrent phase? (Defensive; single
		// coordinator in practice.)
		if _, gen := ts.status(); gen > entryGen {
			return
		}
		epoch++
		var probe [8]byte
		binary.LittleEndian.PutUint64(probe[:], epoch)
		for n := 1; n < numNodes; n++ {
			_ = rt.ep.Send(NodeID(n), wireTermProbe, probe[:])
		}
		// The coordinator's own counters join the tally directly.
		_, gen := ts.status()
		count := termCount{work: rt.Work(), sent: rt.sent.Load(), recv: rt.recv.Load(),
			allWaiting: true, gen: gen}
		needed := numNodes - 1
		// Stopped once the round is over: a pending virtual-clock deadline
		// left behind is one the simulation may jump to when it idles.
		timeout := rt.clk.NewTimer(time.Second)
		for needed > 0 {
			select {
			case r := <-ts.replyCh:
				if r.epoch != epoch {
					continue // stale reply from an earlier probe round
				}
				count.work += r.work
				count.sent += r.sent
				count.recv += r.recv
				count.allWaiting = count.allWaiting && r.waiting
				count.gen = max(count.gen, r.gen)
				needed--
			case <-timeout.C:
				needed = -1 // lost probe/reply; retry the round
			}
		}
		timeout.Stop()
		if needed == 0 && count.allWaiting && count.work == 0 && count.sent == count.recv {
			if prev != nil && *prev == count {
				// Two identical balanced counts: terminated.
				gen := count.gen + 1
				var ann [8]byte
				binary.LittleEndian.PutUint64(ann[:], gen)
				for n := 1; n < numNodes; n++ {
					_ = rt.ep.Send(NodeID(n), wireTermAnnounce, ann[:])
				}
				rt.onTerminated(gen)
				return
			}
			prev = &count
		} else {
			prev = nil
		}
		rt.clk.Sleep(500 * time.Microsecond)
	}
}

func (rt *Runtime) onWireTermProbe(msg comm.Message) {
	if len(msg.Payload) != 8 {
		return
	}
	waiting, gen := rt.term.status()
	var reply [41]byte
	copy(reply[0:8], msg.Payload)
	binary.LittleEndian.PutUint64(reply[8:16], uint64(rt.Work()))
	binary.LittleEndian.PutUint64(reply[16:24], uint64(rt.sent.Load()))
	binary.LittleEndian.PutUint64(reply[24:32], uint64(rt.recv.Load()))
	binary.LittleEndian.PutUint64(reply[32:40], gen)
	if waiting {
		reply[40] = 1
	}
	_ = rt.ep.Send(msg.From, wireTermReply, reply[:])
}

func (rt *Runtime) onWireTermReply(msg comm.Message) {
	if len(msg.Payload) != 41 {
		return
	}
	r := termReply{
		epoch:   binary.LittleEndian.Uint64(msg.Payload[0:8]),
		work:    int64(binary.LittleEndian.Uint64(msg.Payload[8:16])),
		sent:    int64(binary.LittleEndian.Uint64(msg.Payload[16:24])),
		recv:    int64(binary.LittleEndian.Uint64(msg.Payload[24:32])),
		gen:     binary.LittleEndian.Uint64(msg.Payload[32:40]),
		waiting: msg.Payload[40] == 1,
	}
	select {
	case rt.term.replyCh <- r:
	default: // coordinator gone or slow; drop
	}
}

func (rt *Runtime) onWireTermAnnounce(msg comm.Message) {
	if len(msg.Payload) != 8 {
		return
	}
	rt.onTerminated(binary.LittleEndian.Uint64(msg.Payload))
}

// onTerminated releases every waiter once a generation newer than the one
// it entered at is announced. Waiters all entered at ts.announced (an
// announcement releases everyone who entered before it), so one comparison
// decides for all of them.
func (rt *Runtime) onTerminated(gen uint64) {
	ts := rt.term
	ts.mu.Lock()
	if gen <= ts.announced {
		ts.mu.Unlock()
		return
	}
	ts.announced = gen
	waiters := ts.waiters
	ts.waiters = nil
	ts.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}
