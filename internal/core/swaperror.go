package core

import "fmt"

// This file implements the swap-path failure surface: when a storage
// operation fails after the retry layer's budget is exhausted, the runtime
// must not lose state silently. Store failures keep the object in core; load
// failures mark the object lost (stLost) and drop its queue so termination
// is still reached — but every such event is counted, recorded, and handed
// to the application's OnSwapError callback. A quietly incomplete mesh
// becomes a loud, attributable failure.

// SwapOp identifies the failing swap-path operation.
type SwapOp string

// The swap-path operations that can fail.
const (
	SwapLoad   SwapOp = "load"   // reading the blob back from the store
	SwapDecode SwapOp = "decode" // deserializing a blob that was read
	SwapStore  SwapOp = "store"  // writing the blob during eviction
)

// SwapError describes one swap-path failure that survived the retry layer.
type SwapError struct {
	Ptr MobilePtr
	Op  SwapOp
	Err error
	// Dropped is the number of queued messages discarded with the object.
	Dropped int
	// Lost reports whether the object became unreachable. Store failures
	// keep the object in core (Lost == false); load and decode failures
	// lose it.
	Lost bool
}

// Error implements the error interface.
func (e SwapError) Error() string {
	if e.Lost {
		return fmt.Sprintf("core: swap %s of %v failed, object lost (%d messages dropped): %v",
			e.Op, e.Ptr, e.Dropped, e.Err)
	}
	return fmt.Sprintf("core: swap %s of %v failed: %v", e.Op, e.Ptr, e.Err)
}

// Unwrap exposes the underlying storage error to errors.Is/As.
func (e SwapError) Unwrap() error { return e.Err }

// SwapStats counts swap-path failures and retries for one runtime.
type SwapStats struct {
	LoadFailures  uint64 // loads/decodes that failed after retry
	StoreFailures uint64 // eviction writes that failed after retry
	Retries       uint64 // transient faults absorbed by the storage layer
	ObjectsLost   uint64 // objects made unreachable by failed loads
}

// String implements fmt.Stringer.
func (s SwapStats) String() string {
	return fmt.Sprintf("retries %d load-fail %d store-fail %d lost %d",
		s.Retries, s.LoadFailures, s.StoreFailures, s.ObjectsLost)
}

// maxRecordedSwapErrors bounds the per-runtime error log; counters keep the
// totals when the log saturates.
const maxRecordedSwapErrors = 128

// SwapStats returns the runtime's swap-failure and retry counters.
func (rt *Runtime) SwapStats() SwapStats {
	return SwapStats{
		LoadFailures:  rt.loadFailures.Load(),
		StoreFailures: rt.storeFailures.Load(),
		Retries:       rt.io.Retries(),
		ObjectsLost:   rt.objectsLost.Load(),
	}
}

// SwapErrors returns the recorded swap failures (up to the first
// maxRecordedSwapErrors of them; SwapStats has the full counts).
func (rt *Runtime) SwapErrors() []SwapError {
	rt.semu.Lock()
	defer rt.semu.Unlock()
	return append([]SwapError(nil), rt.swapErrs...)
}

// noteSwapError updates the runtime's counters, records the error, and
// invokes the application callback. Callers must not hold any object lock
// (the callback is application code).
func (rt *Runtime) noteSwapError(e SwapError) {
	if e.Op == SwapStore {
		rt.storeFailures.Add(1)
	} else {
		rt.loadFailures.Add(1)
	}
	if e.Lost {
		rt.objectsLost.Add(1)
	}
	rt.semu.Lock()
	if len(rt.swapErrs) < maxRecordedSwapErrors {
		rt.swapErrs = append(rt.swapErrs, e)
	}
	rt.semu.Unlock()
	if rt.onSwapError != nil {
		rt.onSwapError(e)
	}
}
