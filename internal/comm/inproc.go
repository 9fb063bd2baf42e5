package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/bufpool"
	"mrts/internal/clock"
	"mrts/internal/obs"
)

// LatencyModel describes the simulated network cost of a message. The
// delivery of a message of s bytes is delayed by Latency + s/BytesPerSec
// relative to its send time. A zero model delivers immediately.
//
// The model restores the communication-cost term that the MRTS must overlap
// with computation and disk I/O; without it, an in-process "network" would
// be unrealistically free.
type LatencyModel struct {
	Latency     time.Duration
	BytesPerSec float64
}

// Delay returns the injected delivery delay for a message of size bytes.
func (m LatencyModel) Delay(size int) time.Duration {
	d := m.Latency
	if m.BytesPerSec > 0 {
		d += time.Duration(float64(size) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// item is a queued in-process message with its earliest delivery time.
// pooled items carry a bufpool payload the dispatcher recycles after the
// handler returns.
type item struct {
	msg       Message
	deliverAt time.Time
	pooled    bool
}

// inprocEndpoint delivers messages through an unbounded in-memory inbox. An
// unbounded queue is deliberate: bounded inboxes can deadlock an
// active-message system when handlers themselves send (a cycle of full
// inboxes); the paper's runtime queues application messages without bound
// and relies on the out-of-core layer for memory pressure.
type inprocEndpoint struct {
	id     NodeID
	tr     *InProcTransport
	stats  statCounters
	tracer atomic.Pointer[obs.Tracer]

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []item
	closed   bool
	done     chan struct{}
	handlers map[uint32]Handler
	hmu      sync.RWMutex
}

// InProcTransport connects n endpoints inside one process.
type InProcTransport struct {
	eps   []*inprocEndpoint
	model LatencyModel
	clk   clock.Clock
}

// NewInProc returns an in-process transport with n endpoints and the given
// latency model, timed on the wall clock.
func NewInProc(n int, model LatencyModel) *InProcTransport {
	return NewInProcClock(n, model, nil)
}

// NewInProcClock is NewInProc with an injected clock (nil means the wall
// clock). Delivery delays from the latency model elapse on that clock, so a
// virtual clock makes the modeled network cost free in wall time.
func NewInProcClock(n int, model LatencyModel, clk clock.Clock) *InProcTransport {
	tr := &InProcTransport{model: model, clk: clock.Or(clk)}
	for i := 0; i < n; i++ {
		ep := &inprocEndpoint{
			id:       NodeID(i),
			tr:       tr,
			done:     make(chan struct{}),
			handlers: make(map[uint32]Handler),
		}
		ep.cond = sync.NewCond(&ep.mu)
		tr.eps = append(tr.eps, ep)
	}
	for _, ep := range tr.eps {
		go ep.dispatch()
	}
	return tr
}

// NumNodes returns the number of endpoints.
func (t *InProcTransport) NumNodes() int { return len(t.eps) }

// Endpoint returns endpoint n.
func (t *InProcTransport) Endpoint(n NodeID) Endpoint { return t.eps[n] }

// Close closes all endpoints, draining their queues.
func (t *InProcTransport) Close() error {
	for _, ep := range t.eps {
		if err := ep.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (e *inprocEndpoint) Node() NodeID { return e.id }

func (e *inprocEndpoint) Register(id uint32, h Handler) {
	e.hmu.Lock()
	e.handlers[id] = h
	e.hmu.Unlock()
}

func (e *inprocEndpoint) Send(to NodeID, handler uint32, payload []byte) error {
	return e.send(to, handler, payload, false)
}

// SendBuf implements Endpoint: the payload rides the normal inbox and is
// recycled on the dispatcher after its handler returns (Close drains the
// queue through the same path, so nothing is stranded).
func (e *inprocEndpoint) SendBuf(to NodeID, handler uint32, payload []byte) error {
	if err := e.send(to, handler, payload, true); err != nil {
		bufpool.Put(payload)
		return err
	}
	return nil
}

func (e *inprocEndpoint) send(to NodeID, handler uint32, payload []byte, pooled bool) error {
	if int(to) < 0 || int(to) >= len(e.tr.eps) {
		return fmt.Errorf("comm: send to unknown node %d", to)
	}
	dst := e.tr.eps[to]
	wire := e.tr.model.Delay(len(payload))
	it := item{
		msg:       Message{From: e.id, Handler: handler, Payload: payload},
		deliverAt: e.tr.clk.Now().Add(wire),
		pooled:    pooled,
	}
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return ErrClosed
	}
	dst.queue = append(dst.queue, it)
	dst.cond.Signal()
	dst.mu.Unlock()
	e.stats.msgsSent.Add(1)
	e.stats.bytesSent.Add(uint64(len(payload)))
	// The network model is applied here, so its wire time is reported here:
	// the sender's Comm account.
	tracer := e.tracer.Load()
	tracer.Emit(obs.KindCommSend, uint64(handler), int64(len(payload)))
	tracer.Add(obs.KindCommSend, wire)
	return nil
}

func (e *inprocEndpoint) dispatch() {
	defer close(e.done)
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		it := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()

		if d := it.deliverAt.Sub(e.tr.clk.Now()); d > 0 {
			e.tr.clk.Sleep(d)
		}
		e.hmu.RLock()
		h := e.handlers[it.msg.Handler]
		e.hmu.RUnlock()
		e.stats.msgsReceived.Add(1)
		e.stats.bytesReceived.Add(uint64(len(it.msg.Payload)))
		if h != nil {
			sp := e.tracer.Load().Start(obs.KindCommDeliver, uint64(it.msg.Handler))
			h(it.msg)
			sp.End(int64(len(it.msg.Payload)))
		}
		if it.pooled {
			bufpool.Put(it.msg.Payload)
		}
	}
}

// SetTracer implements Endpoint.
func (e *inprocEndpoint) SetTracer(tr *obs.Tracer) { e.tracer.Store(tr) }

func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return nil
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	<-e.done
	return nil
}

func (e *inprocEndpoint) Stats() Stats { return e.stats.snapshot() }
