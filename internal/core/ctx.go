package core

import "mrts/internal/sched"

// Ctx is the execution context of a message handler: it identifies the
// object the message was delivered to and provides the operations a handler
// may perform — posting messages, creating objects, spawning parallel tasks,
// and influencing the out-of-core layer.
type Ctx struct {
	rt   *Runtime
	Self MobilePtr
	obj  Object
	sc   *sched.Ctx
}

// Object returns the mobile object the handler runs on.
func (c *Ctx) Object() Object { return c.obj }

// Runtime returns the node runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Node returns the executing node's ID.
func (c *Ctx) Node() NodeID { return c.rt.node }

// Post sends a message to another mobile object (or to Self).
func (c *Ctx) Post(dst MobilePtr, h HandlerID, arg []byte) { c.rt.Post(dst, h, arg) }

// Create registers a new mobile object homed on this node.
func (c *Ctx) Create(obj Object) MobilePtr { return c.rt.CreateObject(obj) }

// SetPriority sets the swapping priority hint of the handler's own object
// (see Runtime.SetPriority).
func (c *Ctx) SetPriority(pri int) { c.rt.SetPriority(c.Self, pri) }

// CallInline attempts the paper's shared-memory optimization: if the target
// object is local, in-core and idle, its handler runs synchronously in the
// caller's goroutine — the sender's data is made available to the receiver
// without copying or queueing. It reports whether the inline call happened;
// on false the caller should fall back to Post.
//
// The reservation is try-lock style (a busy or non-resident target just
// returns false), so mutually inline-calling objects cannot deadlock.
func (c *Ctx) CallInline(dst MobilePtr, h HandlerID, arg []byte) bool {
	rt := c.rt
	lo := rt.lookup(dst)
	if lo == nil {
		return false
	}
	lo.mu.Lock()
	if rt.tryAcquire(lo, toRun) != nil {
		lo.mu.Unlock()
		return false
	}
	obj := lo.obj
	lo.mu.Unlock()

	dirtied := rt.runHandler(lo, obj, queued{handler: h, arg: arg}, c.sc, true)

	lo.mu.Lock()
	if dirtied {
		lo.clean = false
	}
	// The inline call bypassed the queue; release drains whatever arrived
	// meanwhile.
	rt.release(lo)
	return true
}
