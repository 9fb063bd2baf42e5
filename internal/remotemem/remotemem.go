// Package remotemem implements the extension sketched in the paper's
// conclusion: using "the memory of remote nodes as out-of-core media". A
// Server turns one node into a memory server; a Client is a storage.Store
// whose blobs live in that server's RAM, reached through the same one-sided
// messaging layer the runtime uses. Plugging a Client in as a node's store
// lets applications with large memory needs but limited parallelism spill to
// a remote node instead of local disk, with no changes to the algorithm.
package remotemem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mrts/internal/bufpool"
	"mrts/internal/comm"
	"mrts/internal/storage"
)

// Wire handler IDs (distinct from the core runtime's 1-5 range; both sets
// coexist on one endpoint).
const (
	wireReq  uint32 = 1001
	wireResp uint32 = 1002
)

// Operation codes.
const (
	opPut byte = iota + 1
	opGet
	opDelete
	opHas
)

// Response status codes.
const (
	stOK byte = iota + 1
	stNotFound
	// stBadRequest reports a short, corrupt or unrecognized request. The
	// server must answer it — a silent drop would leave the client blocked
	// on wireResp forever.
	stBadRequest
	// stFull reports a Put rejected by the server's capacity lease.
	stFull
)

// Server serves remote store requests from an in-memory map. Create it on
// the node donating its memory.
type Server struct {
	ep  comm.Endpoint
	mem *storage.MemStore

	badReqs atomic.Uint64
}

// NewServer attaches an unbounded memory server to ep.
func NewServer(ep comm.Endpoint) *Server { return NewServerCap(ep, 0) }

// NewServerCap attaches a memory server donating at most capacity bytes
// (<= 0 means unbounded). Writes beyond the lease are rejected loudly with
// stFull — the donor node's own budget is never silently overrun.
func NewServerCap(ep comm.Endpoint, capacity int64) *Server {
	s := &Server{ep: ep, mem: storage.NewMemCap(capacity)}
	ep.Register(wireReq, s.onRequest)
	return s
}

// ServerStats extends the memory store counters with the server's protocol
// and capacity accounting.
type ServerStats struct {
	storage.Stats
	// BadRequests counts malformed requests answered with stBadRequest
	// (plus the unanswerable ones too short to carry a request ID).
	BadRequests uint64
	// RejectedPuts counts writes refused by the capacity lease.
	RejectedPuts uint64
	// BytesResident is the payload currently held; Capacity the lease
	// (<= 0 means unbounded).
	BytesResident int64
	Capacity      int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Stats:         s.mem.Stats(),
		BadRequests:   s.badReqs.Load(),
		RejectedPuts:  s.mem.Rejected(),
		BytesResident: s.mem.BytesResident(),
		Capacity:      s.mem.Capacity(),
	}
}

func (s *Server) onRequest(msg comm.Message) {
	if len(msg.Payload) < 9 {
		// Too short to even carry a request ID: unanswerable, but never
		// silent — it still counts.
		s.badReqs.Add(1)
		return
	}
	reqID := binary.LittleEndian.Uint64(msg.Payload[1:9])
	if len(msg.Payload) < 13 {
		s.reject(msg.From, reqID)
		return
	}
	op := msg.Payload[0]
	// Bound the lengths against the payload before any arithmetic: on 32-bit
	// platforms 13+keyLen+4 can overflow negative for a hostile keyLen and
	// sneak past the check into a panicking slice expression.
	keyLen := int(binary.LittleEndian.Uint32(msg.Payload[9:13]))
	if keyLen < 0 || keyLen > len(msg.Payload)-17 {
		s.reject(msg.From, reqID)
		return
	}
	key := storage.Key(msg.Payload[13 : 13+keyLen])
	dataLen := int(binary.LittleEndian.Uint32(msg.Payload[13+keyLen : 17+keyLen]))
	if dataLen < 0 || dataLen > len(msg.Payload)-17-keyLen {
		s.reject(msg.From, reqID)
		return
	}
	data := msg.Payload[17+keyLen : 17+keyLen+dataLen]

	status := stOK
	var out []byte
	switch op {
	case opPut:
		if err := s.mem.Put(key, data); err != nil {
			if errors.Is(err, storage.ErrCapacity) {
				status = stFull
			} else {
				status = stNotFound
			}
		}
	case opGet:
		d, err := s.mem.GetBuf(key)
		if err != nil {
			status = stNotFound
		} else {
			out = d
			defer s.mem.ReleaseBuf(d) // respond copies out into the frame
		}
	case opDelete:
		_ = s.mem.Delete(key)
	case opHas:
		if !s.mem.Has(key) {
			status = stNotFound
		}
	default:
		s.badReqs.Add(1)
		status = stBadRequest
	}

	s.respond(msg.From, reqID, status, out)
}

// reject answers a malformed-but-routable request with stBadRequest.
func (s *Server) reject(to comm.NodeID, reqID uint64) {
	s.badReqs.Add(1)
	s.respond(to, reqID, stBadRequest, nil)
}

func (s *Server) respond(to comm.NodeID, reqID uint64, status byte, out []byte) {
	// The response frame is pooled: the client's onResponse copies what it
	// needs out of the payload, so the transport recycles the frame after
	// the handler returns.
	resp := bufpool.Get(9 + 4 + len(out))
	binary.LittleEndian.PutUint64(resp[0:8], reqID)
	resp[8] = status
	binary.LittleEndian.PutUint32(resp[9:13], uint32(len(out)))
	copy(resp[13:], out)
	_ = s.ep.SendBuf(to, wireResp, resp)
}

// Client is a storage.Store backed by a remote Server's memory.
type Client struct {
	ep     comm.Endpoint
	server comm.NodeID

	mu      sync.Mutex
	next    uint64
	pending map[uint64]chan response
	closed  bool
}

type response struct {
	status byte
	data   []byte
}

// NewClient attaches a remote store client to ep, talking to the server on
// the given node.
func NewClient(ep comm.Endpoint, server comm.NodeID) *Client {
	c := &Client{ep: ep, server: server, pending: make(map[uint64]chan response)}
	ep.Register(wireResp, c.onResponse)
	return c
}

func (c *Client) onResponse(msg comm.Message) {
	if len(msg.Payload) < 13 {
		return
	}
	reqID := binary.LittleEndian.Uint64(msg.Payload[0:8])
	status := msg.Payload[8]
	n := int(binary.LittleEndian.Uint32(msg.Payload[9:13]))
	if n < 0 || n > len(msg.Payload)-13 { // overflow-safe bound, as onRequest
		return
	}
	var data []byte
	if n > 0 {
		// Copied into a pooled buffer the caller of Get comes to own; the
		// frame itself belongs to the transport.
		data = bufpool.Get(n)
		copy(data, msg.Payload[13:13+n])
	}
	c.mu.Lock()
	ch := c.pending[reqID]
	delete(c.pending, reqID)
	c.mu.Unlock()
	if ch != nil {
		ch <- response{status: status, data: data}
	} else if data != nil {
		bufpool.Put(data) // waiter already failed by Close
	}
}

// call performs one synchronous request/response round trip.
func (c *Client) call(op byte, key storage.Key, data []byte) (response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return response{}, storage.ErrClosed
	}
	c.next++
	reqID := c.next
	ch := make(chan response, 1)
	c.pending[reqID] = ch
	c.mu.Unlock()

	// The request frame is pooled; the server's onRequest only reads the
	// payload during the handler, so the transport recycles it afterwards.
	req := bufpool.Get(13 + len(key) + 4 + len(data))
	req[0] = op
	binary.LittleEndian.PutUint64(req[1:9], reqID)
	binary.LittleEndian.PutUint32(req[9:13], uint32(len(key)))
	copy(req[13:], key)
	binary.LittleEndian.PutUint32(req[13+len(key):], uint32(len(data)))
	copy(req[17+len(key):], data)
	if err := c.ep.SendBuf(c.server, wireReq, req); err != nil {
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
		return response{}, fmt.Errorf("remotemem: %w", err)
	}
	// A closed channel (not a sent value) means Close failed this waiter:
	// the response was lost or will arrive after the client is gone. Without
	// this distinction a lost frame blocked the caller forever.
	r, ok := <-ch
	if !ok {
		return response{}, fmt.Errorf("remotemem: call %d abandoned: %w", reqID, storage.ErrClosed)
	}
	return r, nil
}

// ErrBadRequest is returned when the server answered stBadRequest: the wire
// payload was malformed — a protocol bug, never retryable.
var ErrBadRequest = fmt.Errorf("remotemem: malformed request: %w", storage.ErrPermanent)

// Put implements storage.Store. A write past the server's lease surfaces as
// storage.ErrCapacity so callers (the tier layer) can place the blob
// elsewhere instead of retrying a hopeless write.
func (c *Client) Put(key storage.Key, data []byte) error {
	r, err := c.call(opPut, key, data)
	if err != nil {
		return err
	}
	switch r.status {
	case stOK:
		return nil
	case stFull:
		return fmt.Errorf("remotemem: put %q (%d bytes): %w", string(key), len(data), storage.ErrCapacity)
	case stBadRequest:
		return ErrBadRequest
	default:
		return fmt.Errorf("remotemem: put %q: server status %d", string(key), r.status)
	}
}

// Get implements storage.Store.
func (c *Client) Get(key storage.Key) ([]byte, error) {
	r, err := c.call(opGet, key, nil)
	if err != nil {
		return nil, err
	}
	if r.status == stBadRequest {
		return nil, ErrBadRequest
	}
	if r.status != stOK {
		return nil, storage.ErrNotFound
	}
	return r.data, nil
}

// Delete implements storage.Store.
func (c *Client) Delete(key storage.Key) error {
	r, err := c.call(opDelete, key, nil)
	if err != nil {
		return err
	}
	if r.status == stBadRequest {
		return ErrBadRequest
	}
	return nil
}

// Has implements storage.Store.
func (c *Client) Has(key storage.Key) bool {
	r, err := c.call(opHas, key, nil)
	return err == nil && r.status == stOK
}

// GetBuf implements storage.BufGetter: the response data is already a
// pooled buffer owned by the caller.
func (c *Client) GetBuf(key storage.Key) ([]byte, error) { return c.Get(key) }

// ReleaseBuf implements storage.BufGetter.
func (c *Client) ReleaseBuf(data []byte) { bufpool.Put(data) }

// Close implements storage.Store. Every in-flight call fails promptly with
// storage.ErrClosed (its channel is closed out from under it — a waiter must
// never outlive the client, or a lost response would strand it forever);
// new calls fail immediately. A response racing with Close is dropped: only
// one of onResponse and Close removes a given waiter from pending, so a
// waiter is either completed or failed, never both.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	return nil
}

var _ storage.Store = (*Client)(nil)
