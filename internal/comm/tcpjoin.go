package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/bufpool"
	"mrts/internal/clock"
	"mrts/internal/obs"
)

// TCPNode is one process's endpoint of an address-based TCP transport.
// Every TCPNode is started independently (usually in its own OS process;
// NewTCP starts n of them in one) and finds the others through a join
// handshake with a well-known seed node:
//
//   - the seed (started with an empty Seed address) takes node ID 0 and owns
//     the member table;
//   - every other node dials the seed, sends a JOIN carrying its listen
//     address (and, on rejoin after a crash, the ID it wants back), and
//     receives a WELCOME with its assigned ID plus the current member table;
//   - the seed broadcasts the member table to all live members on every
//     change, stamped with a monotonically increasing membership epoch;
//   - non-seed members heartbeat to the seed on the injected clock; the seed
//     marks members that fall silent for ExpireAfter as down (a graceful
//     Close sends LEAVE so the seed doesn't have to wait for the timeout).
//
// Frames on the wire are length-prefixed (src, handler, len, payload,
// little-endian); handler IDs at or above ctrlBase are reserved for
// the membership protocol and never reach registered handlers. Sends to a
// peer that is down — or whose connection dies mid-stream and cannot be
// immediately re-dialed — fail with ErrPeerDown and back off; the connection
// is re-dialed (at the peer's current address, which may have changed across
// a restart) on a later Send.
type TCPNode struct {
	cfg    TCPNodeConfig
	clk    clock.Clock
	id     NodeID
	seed   bool
	ln     net.Listener
	stats  statCounters
	tracer atomic.Pointer[obs.Tracer]

	hmu      sync.RWMutex
	handlers map[uint32]Handler

	mu      sync.Mutex
	epoch   uint64
	members map[NodeID]*memberState
	conns   map[NodeID]*tcpConn
	inbound []net.Conn
	closed  bool

	inbox     *inbox
	done      chan struct{}
	stop      chan struct{} // closes heartbeat/expiry loops
	wg        sync.WaitGroup
	hbWG      sync.WaitGroup
	closeOnce sync.Once
}

// TCPNodeConfig configures one TCPNode.
type TCPNodeConfig struct {
	// Listen is the address to listen on, e.g. "127.0.0.1:7070" or
	// "127.0.0.1:0" for an ephemeral port (read it back with Addr).
	Listen string
	// Seed is the seed node's address. Empty means this node IS the seed
	// and takes ID 0.
	Seed string
	// WantID requests a specific node ID from the seed: a node restarting
	// after a crash passes its old ID so mobile pointers homed on it stay
	// valid. Negative asks the seed to assign the next free ID. Ignored on
	// the seed itself.
	WantID NodeID
	// Clock supplies time for heartbeats, expiry and backoff. Nil means
	// the wall clock.
	Clock clock.Clock
	// HeartbeatEvery is the interval between liveness heartbeats to the
	// seed (default 500ms).
	HeartbeatEvery time.Duration
	// ExpireAfter is how long the seed lets a member stay silent before
	// marking it down (default 5s).
	ExpireAfter time.Duration
	// RedialBackoff is the initial per-peer backoff after a failed dial or
	// a send that failed twice; it doubles per failure up to RedialMax
	// (defaults 50ms and 2s).
	RedialBackoff time.Duration
	RedialMax     time.Duration
}

// Member is one row of the cluster member table.
type Member struct {
	ID   NodeID
	Addr string
	Up   bool
}

// memberState is the node-local view of one peer, including the sender-side
// redial backoff for its connection.
type memberState struct {
	addr     string
	up       bool
	lastSeen time.Time // seed only: last heartbeat/traffic time
	nextDial time.Time // no dial attempts before this instant
	backoff  time.Duration
}

// Reserved control handler IDs (never dispatched to registered handlers).
const (
	ctrlBase      uint32 = 0xFFFF0000
	ctrlJoin      uint32 = ctrlBase + 1 // payload: wantID(4) alen(2) addr
	ctrlWelcome   uint32 = ctrlBase + 2 // payload: id(4) + member table
	ctrlMembers   uint32 = ctrlBase + 3 // payload: member table
	ctrlHeartbeat uint32 = ctrlBase + 4 // payload: empty
	ctrlLeave     uint32 = ctrlBase + 5 // payload: empty
)

// anyID is the on-wire encoding of "assign me an ID".
const anyID = ^uint32(0)

const (
	defaultHeartbeat   = 500 * time.Millisecond
	defaultExpireAfter = 5 * time.Second
	defaultRedialBase  = 50 * time.Millisecond
	defaultRedialMax   = 2 * time.Second
)

// StartTCPNode starts listening, joins the cluster through the seed (unless
// this node is the seed), and begins dispatching messages.
func StartTCPNode(cfg TCPNodeConfig) (*TCPNode, error) {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = defaultHeartbeat
	}
	if cfg.ExpireAfter <= 0 {
		cfg.ExpireAfter = defaultExpireAfter
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = defaultRedialBase
	}
	if cfg.RedialMax <= 0 {
		cfg.RedialMax = defaultRedialMax
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	e := &TCPNode{
		cfg:      cfg,
		clk:      clock.Or(cfg.Clock),
		seed:     cfg.Seed == "",
		ln:       ln,
		handlers: make(map[uint32]Handler),
		members:  make(map[NodeID]*memberState),
		conns:    make(map[NodeID]*tcpConn),
		inbox:    newInbox(),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
	}
	if e.seed {
		e.id = 0
		e.epoch = 1
		e.members[0] = &memberState{addr: e.Addr(), up: true, lastSeen: e.clk.Now()}
	} else if err := e.join(); err != nil {
		ln.Close()
		return nil, err
	}
	e.wg.Add(1)
	go e.acceptLoop()
	go e.dispatch()
	e.hbWG.Add(1)
	if e.seed {
		go e.expireLoop()
	} else {
		go e.heartbeatLoop()
	}
	return e, nil
}

// Addr returns the address this node actually listens on.
func (e *TCPNode) Addr() string { return e.ln.Addr().String() }

// Node implements Endpoint.
func (e *TCPNode) Node() NodeID { return e.id }

// Members returns the current member table, sorted by node ID.
func (e *TCPNode) Members() []Member {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.membersLocked()
}

func (e *TCPNode) membersLocked() []Member {
	ms := make([]Member, 0, len(e.members))
	for id, m := range e.members {
		ms = append(ms, Member{ID: id, Addr: m.addr, Up: m.up})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms
}

// WaitMembers blocks until at least n members are up (including this node)
// or the timeout elapses.
func (e *TCPNode) WaitMembers(n int, timeout time.Duration) error {
	deadline := e.clk.Now().Add(timeout)
	for {
		up := 0
		for _, m := range e.Members() {
			if m.Up {
				up++
			}
		}
		if up >= n {
			return nil
		}
		if e.isClosed() {
			return ErrClosed
		}
		if !e.clk.Now().Before(deadline) {
			return fmt.Errorf("comm: %d/%d members up after %v", up, n, timeout)
		}
		e.clk.Sleep(5 * time.Millisecond)
	}
}

// Register implements Endpoint.
func (e *TCPNode) Register(id uint32, h Handler) {
	e.hmu.Lock()
	e.handlers[id] = h
	e.hmu.Unlock()
}

// SetTracer implements Endpoint.
func (e *TCPNode) SetTracer(tr *obs.Tracer) { e.tracer.Store(tr) }

// Stats implements Endpoint.
func (e *TCPNode) Stats() Stats { return e.stats.snapshot() }

// join runs the handshake: dial the seed on a dedicated connection, send
// JOIN, read WELCOME synchronously, install the member table.
func (e *TCPNode) join() error {
	c, err := net.Dial("tcp", e.cfg.Seed)
	if err != nil {
		return fmt.Errorf("comm: join: dial seed %s: %w", e.cfg.Seed, err)
	}
	defer c.Close()
	addr := e.Addr()
	req := make([]byte, 6+len(addr))
	want := anyID
	if e.cfg.WantID >= 0 {
		want = uint32(e.cfg.WantID)
	}
	binary.LittleEndian.PutUint32(req[0:4], want)
	binary.LittleEndian.PutUint16(req[4:6], uint16(len(addr)))
	copy(req[6:], addr)
	w := bufio.NewWriter(c)
	if err := writeFrame(w, -1, ctrlJoin, req); err != nil {
		return fmt.Errorf("comm: join: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("comm: join: %w", err)
	}
	_, handler, payload, err := readFrame(bufio.NewReader(c))
	if err != nil {
		return fmt.Errorf("comm: join: read welcome: %w", err)
	}
	if handler != ctrlWelcome || len(payload) < 4 {
		return fmt.Errorf("comm: join: unexpected reply handler %#x", handler)
	}
	id := NodeID(int32(binary.LittleEndian.Uint32(payload[0:4])))
	epoch, table, err := decodeMemberTable(payload[4:])
	if err != nil {
		return fmt.Errorf("comm: join: %w", err)
	}
	e.mu.Lock()
	e.id = id
	e.installTableLocked(epoch, table)
	e.mu.Unlock()
	return nil
}

// encodeMemberTable renders epoch(8) n(4) then n rows of
// id(4) up(1) alen(2) addr.
func encodeMemberTable(epoch uint64, ms []Member) []byte {
	size := 12
	for _, m := range ms {
		size += 7 + len(m.Addr)
	}
	buf := make([]byte, 12, size)
	binary.LittleEndian.PutUint64(buf[0:8], epoch)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(ms)))
	for _, m := range ms {
		var row [7]byte
		binary.LittleEndian.PutUint32(row[0:4], uint32(m.ID))
		if m.Up {
			row[4] = 1
		}
		binary.LittleEndian.PutUint16(row[5:7], uint16(len(m.Addr)))
		buf = append(buf, row[:]...)
		buf = append(buf, m.Addr...)
	}
	return buf
}

func decodeMemberTable(b []byte) (uint64, []Member, error) {
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("short member table (%d bytes)", len(b))
	}
	epoch := binary.LittleEndian.Uint64(b[0:8])
	n := int(binary.LittleEndian.Uint32(b[8:12]))
	b = b[12:]
	if n < 0 || n > 1<<20 {
		return 0, nil, fmt.Errorf("implausible member count %d", n)
	}
	ms := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 7 {
			return 0, nil, fmt.Errorf("truncated member row %d", i)
		}
		id := NodeID(int32(binary.LittleEndian.Uint32(b[0:4])))
		up := b[4] == 1
		alen := int(binary.LittleEndian.Uint16(b[5:7]))
		b = b[7:]
		if len(b) < alen {
			return 0, nil, fmt.Errorf("truncated member addr %d", i)
		}
		ms = append(ms, Member{ID: id, Addr: string(b[:alen]), Up: up})
		b = b[alen:]
	}
	return epoch, ms, nil
}

// installTableLocked replaces the member table from a broadcast, dropping
// cached connections to peers that went down or moved address. Stale epochs
// are ignored (broadcasts can reorder across connections).
func (e *TCPNode) installTableLocked(epoch uint64, table []Member) {
	if epoch <= e.epoch && len(e.members) > 0 {
		return
	}
	e.epoch = epoch
	fresh := make(map[NodeID]*memberState, len(table))
	for _, m := range table {
		old := e.members[m.ID]
		st := &memberState{addr: m.Addr, up: m.Up, lastSeen: e.clk.Now()}
		if old != nil {
			st.nextDial, st.backoff = old.nextDial, old.backoff
		}
		if m.Up {
			// A peer that is (back) up is immediately dialable.
			st.nextDial, st.backoff = time.Time{}, 0
		}
		fresh[m.ID] = st
		if c, ok := e.conns[m.ID]; ok && (!m.Up || (old != nil && old.addr != m.Addr)) {
			delete(e.conns, m.ID)
			c.c.Close()
		}
	}
	e.members = fresh
}

func (e *TCPNode) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.inbound = append(e.inbound, c)
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

func (e *TCPNode) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		src, handler, payload, err := readFrame(br)
		if err != nil {
			return
		}
		if handler >= ctrlBase {
			if !e.handleControl(c, src, handler, payload) {
				return
			}
			continue
		}
		e.stats.msgsReceived.Add(1)
		e.stats.bytesReceived.Add(uint64(len(payload)))
		e.noteAlive(src)
		if !e.inbox.push(Message{From: src, Handler: handler, Payload: payload}) {
			return
		}
	}
}

// handleControl processes one membership-protocol frame on the reader
// goroutine of the connection it arrived on. It reports whether the
// connection should stay open.
func (e *TCPNode) handleControl(c net.Conn, src NodeID, handler uint32, payload []byte) bool {
	switch handler {
	case ctrlJoin:
		if !e.seed || len(payload) < 6 {
			return false
		}
		want := binary.LittleEndian.Uint32(payload[0:4])
		alen := int(binary.LittleEndian.Uint16(payload[4:6]))
		if len(payload) < 6+alen {
			return false
		}
		return e.admit(c, want, string(payload[6:6+alen]))
	case ctrlMembers:
		epoch, table, err := decodeMemberTable(payload)
		if err != nil {
			return false
		}
		e.mu.Lock()
		e.installTableLocked(epoch, table)
		e.mu.Unlock()
		return true
	case ctrlHeartbeat:
		if e.seed {
			e.noteAlive(src)
		}
		return true
	case ctrlLeave:
		if e.seed {
			e.markDown(src)
		}
		return true
	default:
		return true // unknown control frame: ignore, stream still framed
	}
}

// admit (seed only) assigns an ID to a joiner, answers WELCOME on the same
// connection, and broadcasts the new table.
func (e *TCPNode) admit(c net.Conn, want uint32, addr string) bool {
	e.mu.Lock()
	var id NodeID
	if want != anyID {
		id = NodeID(int32(want))
		if m, ok := e.members[id]; ok && m.up && m.addr != addr {
			e.mu.Unlock()
			return false // ID is taken by a live member elsewhere
		}
	} else {
		for mid := range e.members {
			if mid >= id {
				id = mid + 1
			}
		}
	}
	e.members[id] = &memberState{addr: addr, up: true, lastSeen: e.clk.Now()}
	e.epoch++
	epoch := e.epoch
	table := e.membersLocked()
	e.mu.Unlock()

	welcome := make([]byte, 4)
	binary.LittleEndian.PutUint32(welcome, uint32(id))
	welcome = append(welcome, encodeMemberTable(epoch, table)...)
	w := bufio.NewWriter(c)
	if err := writeFrame(w, e.id, ctrlWelcome, welcome); err != nil {
		return false
	}
	if err := w.Flush(); err != nil {
		return false
	}
	e.broadcastMembers(epoch, table)
	return true
}

// broadcastMembers pushes the member table to every other up member.
func (e *TCPNode) broadcastMembers(epoch uint64, table []Member) {
	payload := encodeMemberTable(epoch, table)
	for _, m := range table {
		if m.ID == e.id || !m.Up {
			continue
		}
		_ = e.sendRaw(m.ID, ctrlMembers, payload) // down peers learn on rejoin
	}
}

// noteAlive records traffic from a member (seed: refreshes its expiry; a
// down member that speaks again is revived and re-announced).
func (e *TCPNode) noteAlive(src NodeID) {
	if !e.seed {
		return
	}
	e.mu.Lock()
	m, ok := e.members[src]
	if !ok {
		e.mu.Unlock()
		return
	}
	m.lastSeen = e.clk.Now()
	revived := !m.up
	if revived {
		m.up = true
		e.epoch++
	}
	epoch := e.epoch
	table := e.membersLocked()
	e.mu.Unlock()
	if revived {
		e.broadcastMembers(epoch, table)
	}
}

// markDown (seed only) marks a member down and broadcasts the change.
func (e *TCPNode) markDown(id NodeID) {
	e.mu.Lock()
	m, ok := e.members[id]
	if !ok || !m.up {
		e.mu.Unlock()
		return
	}
	m.up = false
	e.epoch++
	epoch := e.epoch
	table := e.membersLocked()
	if c, ok := e.conns[id]; ok {
		delete(e.conns, id)
		c.c.Close()
	}
	e.mu.Unlock()
	e.broadcastMembers(epoch, table)
}

// heartbeatLoop (non-seed) tells the seed this node is alive.
func (e *TCPNode) heartbeatLoop() {
	defer e.hbWG.Done()
	for {
		t := e.clk.NewTimer(e.cfg.HeartbeatEvery)
		select {
		case <-t.C:
		case <-e.stop:
			t.Stop()
			return
		}
		_ = e.sendRaw(0, ctrlHeartbeat, nil) // seed is node 0 by construction
	}
}

// expireLoop (seed) sweeps for members that fell silent.
func (e *TCPNode) expireLoop() {
	defer e.hbWG.Done()
	for {
		t := e.clk.NewTimer(e.cfg.ExpireAfter / 4)
		select {
		case <-t.C:
		case <-e.stop:
			t.Stop()
			return
		}
		now := e.clk.Now()
		var expired []NodeID
		e.mu.Lock()
		for id, m := range e.members {
			if id != e.id && m.up && now.Sub(m.lastSeen) > e.cfg.ExpireAfter {
				expired = append(expired, id)
			}
		}
		e.mu.Unlock()
		for _, id := range expired {
			e.markDown(id)
		}
	}
}

// Send implements Endpoint.
func (e *TCPNode) Send(to NodeID, handler uint32, payload []byte) error {
	if handler >= ctrlBase {
		return fmt.Errorf("comm: handler %#x is reserved for the membership protocol", handler)
	}
	if e.isClosed() {
		return ErrClosed
	}
	if to == e.id {
		e.stats.msgsSent.Add(1)
		e.stats.bytesSent.Add(uint64(len(payload)))
		e.stats.msgsReceived.Add(1)
		e.stats.bytesReceived.Add(uint64(len(payload)))
		if !e.inbox.push(Message{From: e.id, Handler: handler, Payload: payload}) {
			return ErrClosed
		}
		e.tracer.Load().Emit(obs.KindCommSend, uint64(handler), int64(len(payload)))
		return nil
	}
	if err := e.sendRaw(to, handler, payload); err != nil {
		return err
	}
	e.stats.msgsSent.Add(1)
	e.stats.bytesSent.Add(uint64(len(payload)))
	e.tracer.Load().Emit(obs.KindCommSend, uint64(handler), int64(len(payload)))
	return nil
}

// SendBuf implements Endpoint. On the socket path the frame is fully
// buffered and flushed inside Send, so the payload is recycled as soon as
// Send returns. The local fast path enqueues the payload itself with no
// pooled marker, so there the buffer is dropped to the GC instead: correct,
// just not recycled.
func (e *TCPNode) SendBuf(to NodeID, handler uint32, payload []byte) error {
	err := e.Send(to, handler, payload)
	if to != e.id {
		bufpool.Put(payload)
	}
	return err
}

// sendRaw delivers one frame to a remote member: resolve its address, dial
// if needed (respecting the per-peer backoff), write, and on a mid-stream
// failure drop the socket and retry once on a fresh dial — the peer may
// have restarted at the same or a new address, in which case the first
// cached connection is stale but the peer itself is healthy. A second
// failure arms the backoff and reports the peer down.
func (e *TCPNode) sendRaw(to NodeID, handler uint32, payload []byte) error {
	for attempt := 0; ; attempt++ {
		tc, fresh, err := e.connTo(to)
		if err != nil {
			return err
		}
		tc.mu.Lock()
		err = writeFrame(tc.w, e.id, handler, payload)
		if err == nil {
			err = tc.w.Flush()
		}
		tc.mu.Unlock()
		if err == nil {
			e.resetBackoff(to)
			return nil
		}
		e.dropPeerConn(to, tc)
		if attempt > 0 || fresh {
			e.armBackoff(to)
			return fmt.Errorf("comm: send to node %d: %v: %w", to, err, ErrPeerDown)
		}
	}
}

// connTo returns the cached connection to a peer, dialing its current
// address if none is cached. fresh reports that this call dialed.
func (e *TCPNode) connTo(to NodeID) (tc *tcpConn, fresh bool, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, false, ErrClosed
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, false, nil
	}
	m, ok := e.members[to]
	if !ok {
		e.mu.Unlock()
		return nil, false, fmt.Errorf("comm: send to unknown node %d: %w", to, ErrPeerDown)
	}
	if !m.up {
		e.mu.Unlock()
		return nil, false, fmt.Errorf("comm: node %d is down: %w", to, ErrPeerDown)
	}
	if !m.nextDial.IsZero() && e.clk.Now().Before(m.nextDial) {
		e.mu.Unlock()
		return nil, false, fmt.Errorf("comm: node %d in dial backoff: %w", to, ErrPeerDown)
	}
	addr := m.addr
	e.mu.Unlock()

	// Dial outside the lock: a slow peer must not stall sends to others.
	c, derr := net.Dial("tcp", addr)
	if derr != nil {
		e.armBackoff(to)
		return nil, false, fmt.Errorf("comm: dial node %d (%s): %v: %w", to, addr, derr, ErrPeerDown)
	}
	tc = &tcpConn{w: bufio.NewWriter(c), c: c}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.Close()
		return nil, false, ErrClosed
	}
	if prev, ok := e.conns[to]; ok {
		// A concurrent Send won the dial race; use its connection.
		e.mu.Unlock()
		c.Close()
		return prev, false, nil
	}
	e.conns[to] = tc
	e.mu.Unlock()
	return tc, true, nil
}

func (e *TCPNode) dropPeerConn(to NodeID, tc *tcpConn) {
	e.mu.Lock()
	if e.conns[to] == tc {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	tc.c.Close()
}

func (e *TCPNode) armBackoff(to NodeID) {
	e.mu.Lock()
	if m, ok := e.members[to]; ok {
		if m.backoff <= 0 {
			m.backoff = e.cfg.RedialBackoff
		} else if m.backoff < e.cfg.RedialMax {
			m.backoff *= 2
			if m.backoff > e.cfg.RedialMax {
				m.backoff = e.cfg.RedialMax
			}
		}
		m.nextDial = e.clk.Now().Add(m.backoff)
	}
	e.mu.Unlock()
}

func (e *TCPNode) resetBackoff(to NodeID) {
	e.mu.Lock()
	if m, ok := e.members[to]; ok && m.backoff != 0 {
		m.backoff = 0
		m.nextDial = time.Time{}
	}
	e.mu.Unlock()
}

func (e *TCPNode) dispatch() {
	defer close(e.done)
	for {
		m, ok := e.inbox.pop()
		if !ok {
			return
		}
		e.hmu.RLock()
		h := e.handlers[m.Handler]
		e.hmu.RUnlock()
		if h != nil {
			sp := e.tracer.Load().Start(obs.KindCommDeliver, uint64(m.Handler))
			h(m)
			sp.End(int64(len(m.Payload)))
		}
	}
}

func (e *TCPNode) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Close implements Endpoint: announce LEAVE to the seed (best effort), stop
// the liveness loops, close every connection and drain the dispatcher.
func (e *TCPNode) Close() error {
	e.shutdown(true)
	return nil
}

func (e *TCPNode) shutdown(announce bool) {
	e.closeOnce.Do(func() {
		if announce && !e.seed {
			_ = e.sendRaw(0, ctrlLeave, nil)
		}
		close(e.stop)
		e.hbWG.Wait()
		e.mu.Lock()
		e.closed = true
		for _, c := range e.conns {
			c.c.Close()
		}
		for _, c := range e.inbound {
			c.Close()
		}
		e.mu.Unlock()
		e.ln.Close()
		e.wg.Wait()
		e.inbox.close()
	})
	<-e.done
}

var _ Endpoint = (*TCPNode)(nil)
