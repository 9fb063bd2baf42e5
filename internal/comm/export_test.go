package comm

// Epoch returns the current membership epoch.
func (e *TCPNode) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// abort tears the node down without the LEAVE announcement: a crash the
// seed must detect by heartbeat expiry.
func (e *TCPNode) abort() { e.shutdown(false) }
