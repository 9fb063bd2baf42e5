package core

import (
	"bytes"
	"fmt"
)

// CheckInvariants audits the runtime's internal bookkeeping and returns one
// human-readable message per violation (empty slice = healthy). It is the
// core half of the simulation harness's continuous checking: sim.Run calls
// it on a sweep goroutine throughout a scenario with quiescent=false, and
// once more after termination with quiescent=true.
//
// Always checked:
//   - every registered object is in exactly one valid locality state, and
//     holds its in-memory representation iff that state is stInCore
//   - a lost object has an empty message queue (its messages were dropped
//     loudly, not parked forever)
//   - the ooc manager's resident and wanted indexes agree with its object
//     table (ooc.Manager.CheckInvariants)
//
// Checked only at quiescence (quiescent=true) — these are stable properties
// of a terminated system, racy while work is in flight:
//   - no queued, running or parked work remains anywhere, a migration
//     request parked on an object included
//   - every multicast collection completed (reference counts back to zero)
//   - the count of lost objects matches the loud-loss counter
//   - the ooc layer's residency accounting agrees with the object states
//   - in-core bytes fit the memory budget (unless eviction stalled loudly:
//     an over-budget stall is reported through EvictStalls, not silence)
//   - no object is left waiting for admission, and no reservation is held
//   - the ooc layer counts no message queued on any object: one it still
//     counts stays pinned in core, or is reloaded at demand class, for nothing
//   - a clean resident object encodes to exactly its stored blob — the check
//     that catches a mutating handler registered read-only
func (rt *Runtime) CheckInvariants(quiescent bool) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf("node %d: ", rt.node)+fmt.Sprintf(format, args...))
	}

	// Snapshot the object set under rt.mu, then examine each object under
	// its own lock — same order every mutation path uses, so no inversion.
	rt.mu.Lock()
	los := make([]*localObject, 0, len(rt.objects))
	for _, lo := range rt.objects {
		los = append(los, lo)
	}
	parked := len(rt.parked)
	rt.mu.Unlock()

	var inCore, lost, waiting int
	var queuedMsgs, running, parkedMoves int
	var clean []*localObject
	for _, lo := range los {
		lo.mu.Lock()
		st := lo.state
		hasObj := lo.obj != nil
		qlen := len(lo.queue)
		parkedMoves += len(lo.moves)
		isRunning := lo.running
		ptr := lo.ptr
		if lo.admitWait {
			waiting++
		}
		// Both exits of drain settle the count under lo.mu as they clear
		// scheduled, so a drain still on its way out is not mistaken for one
		// that forgot.
		counted := 0
		if quiescent && qlen == 0 && !lo.scheduled && st != stMoved {
			counted = rt.mem.QueueLen(oid(ptr))
		}
		if st == stInCore && lo.clean {
			clean = append(clean, lo)
		}
		lo.mu.Unlock()

		switch st {
		case stInCore, stStoring, stOut, stLoading, stLost, stMoved:
		default:
			fail("object %v in invalid state %d", ptr, st)
		}
		// The in-memory representation exists iff the object is resident.
		// stStoring keeps obj aside in the eviction path (cleared from lo),
		// stLoading has not decoded yet.
		if (st == stInCore) != hasObj {
			fail("object %v: state %d but obj!=nil is %v", ptr, st, hasObj)
		}
		if st == stLost && qlen > 0 {
			fail("lost object %v still holds %d queued messages", ptr, qlen)
		}
		if st == stInCore {
			inCore++
		}
		if st == stLost {
			lost++
		}
		queuedMsgs += qlen
		if isRunning {
			running++
		}
		if counted > 0 {
			fail("object %v has no message queued but the ooc layer counts %d", ptr, counted)
		}
	}

	for _, msg := range rt.mem.CheckInvariants() {
		fail("%s", msg)
	}

	if !quiescent {
		return out
	}

	if w := rt.work.Load(); w != 0 {
		fail("quiescent but work counter = %d", w)
	}
	if queuedMsgs > 0 {
		fail("quiescent but %d messages still queued on objects", queuedMsgs)
	}
	if running > 0 {
		fail("quiescent but %d handlers marked running", running)
	}
	if parked > 0 {
		fail("quiescent but %d destinations hold parked messages", parked)
	}
	if parkedMoves > 0 {
		fail("quiescent but %d migration requests still parked on objects", parkedMoves)
	}
	if p := rt.PendingMulticasts(); p != 0 {
		fail("quiescent but %d multicast collections pending", p)
	}
	rt.adm.mu.Lock()
	listed, reserved := len(rt.adm.fifo), rt.adm.reserved
	rt.adm.mu.Unlock()
	if waiting > 0 || listed > 0 {
		fail("quiescent but %d objects wait for admission (%d listed)", waiting, listed)
	}
	// Routing cycles and lost installs drop messages at the forward-hop
	// bound; the drop is loud (counted + traced) and any occurrence is a
	// routing defect a soak must surface, not absorb.
	if d := rt.RouteDropped(); d != 0 {
		fail("%d messages dropped at the %d-hop forward bound (routing cycle or lost install)",
			d, maxForwardHops)
	}
	// Every loudly-lost object leaves a terminal tombstone, so the
	// tombstone count is never less than the loss counter.
	if l := rt.SwapStats().ObjectsLost; uint64(lost) < l {
		fail("only %d objects in stLost but ObjectsLost counter = %d", lost, l)
	}

	// Residency accounting is only comparable when no swap transition is in
	// flight (an eviction decrements InCore at its commit point, before the
	// state machine settles).
	if rt.swapOps.Load() == 0 {
		ms := rt.mem.Snapshot()
		if int(ms.InCore) != inCore {
			fail("ooc reports %d in-core objects, state machine has %d", ms.InCore, inCore)
		}
		if ms.MemBudget > 0 && ms.MemUsed > ms.MemBudget && rt.EvictStalls() == 0 {
			fail("in-core bytes %d exceed budget %d with no eviction stall reported",
				ms.MemUsed, ms.MemBudget)
		}
		if reserved != 0 {
			fail("no load in flight but admission holds %d bytes reserved", reserved)
		}
		for _, lo := range clean {
			if msg := rt.checkClean(lo); msg != "" {
				fail("%s", msg)
			}
		}
	}
	return out
}

// checkClean compares a clean resident object with its stored blob. An
// object that got busy or evicted since the sweep listed it, or whose blob
// cannot be read right now (an injected fault), is skipped: only a blob that
// was read and differs is a violation.
func (rt *Runtime) checkClean(lo *localObject) string {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	if lo.state != stInCore || !lo.clean || lo.running {
		return ""
	}
	var enc bytes.Buffer
	if err := lo.obj.EncodeTo(&enc); err != nil {
		return fmt.Sprintf("clean object %v does not encode: %v", lo.ptr, err)
	}
	stored, err := rt.io.Backing().Get(storeKey(lo.ptr))
	if err != nil {
		return ""
	}
	if !bytes.Equal(enc.Bytes(), stored) {
		return fmt.Sprintf("clean object %v encodes to %d bytes that differ from its %d stored bytes: a handler registered read-only changed it, or a write was skipped",
			lo.ptr, enc.Len(), len(stored))
	}
	return ""
}
