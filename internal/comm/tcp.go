package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPTransport is n TCPNodes started inside one process on loopback
// ephemeral ports: node 0 is the seed and node i joins it as ID i. It exists
// to demonstrate that the MRTS control layer runs unchanged over a real
// network substrate; the simulated cluster uses InProc.
type TCPTransport struct {
	nodes []*TCPNode
}

// tcpJoinTimeout bounds how long NewTCP waits for every node to see the
// whole member table.
const tcpJoinTimeout = 10 * time.Second

type tcpConn struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  net.Conn
}

// maxFramePayload bounds the claimed payload length of one frame: a corrupt
// or malicious frame could otherwise demand a 4 GiB allocation. Oversized
// frames drop the connection (the stream is unrecoverable once misframed).
const maxFramePayload = 1 << 28

// frameHdrSize is the fixed frame header: src(4) handler(4) len(4).
const frameHdrSize = 12

// writeFrame writes one length-prefixed frame. The caller serializes access
// to w and flushes it.
func writeFrame(w *bufio.Writer, src NodeID, handler uint32, payload []byte) error {
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(src))
	binary.LittleEndian.PutUint32(hdr[4:8], handler)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) (src NodeID, handler uint32, payload []byte, err error) {
	var hdr [frameHdrSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	src = NodeID(int32(binary.LittleEndian.Uint32(hdr[0:4])))
	handler = binary.LittleEndian.Uint32(hdr[4:8])
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > maxFramePayload {
		return 0, 0, nil, fmt.Errorf("comm: frame payload %d exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return src, handler, payload, nil
}

// inbox is an unbounded FIFO used to serialize handler execution on one
// dispatcher goroutine regardless of how many reader connections feed it.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) push(m Message) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return false
	}
	ib.queue = append(ib.queue, m)
	ib.cond.Signal()
	return true
}

func (ib *inbox) pop() (Message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for len(ib.queue) == 0 && !ib.closed {
		ib.cond.Wait()
	}
	if len(ib.queue) == 0 {
		return Message{}, false
	}
	m := ib.queue[0]
	ib.queue = ib.queue[1:]
	return m, true
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// NewTCP starts n TCPNodes listening on ephemeral loopback ports and
// returns once every node sees all n members up.
func NewTCP(n int) (*TCPTransport, error) {
	tr := &TCPTransport{}
	for i := 0; i < n; i++ {
		cfg := TCPNodeConfig{Listen: "127.0.0.1:0", WantID: NodeID(i)}
		if i > 0 {
			cfg.Seed = tr.nodes[0].Addr()
		}
		nd, err := StartTCPNode(cfg)
		if err != nil {
			tr.Close()
			return nil, err
		}
		tr.nodes = append(tr.nodes, nd)
	}
	for _, nd := range tr.nodes {
		if err := nd.WaitMembers(n, tcpJoinTimeout); err != nil {
			tr.Close()
			return nil, err
		}
	}
	return tr, nil
}

// Endpoint returns endpoint n.
func (t *TCPTransport) Endpoint(n NodeID) Endpoint { return t.nodes[n] }

// Close closes every node, the seed last so it hears every LEAVE.
func (t *TCPTransport) Close() error {
	var first error
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if err := t.nodes[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
