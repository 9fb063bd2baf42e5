package meshstore

import "sync/atomic"

// Package-wide counters for the export/restore data path. They are
// process-global (like the bufpool counters): every writer and store in
// the process folds into one view of bytes at rest and bytes moved.
var (
	statBlocksWritten  atomic.Int64
	statBytesWritten   atomic.Int64
	statRawBytes       atomic.Int64
	statBlocksRead     atomic.Int64
	statBytesRead      atomic.Int64
	statBlocksRestored atomic.Int64
	statVerifyErrors   atomic.Int64
)

// Stats is a snapshot of the package counters.
type Stats struct {
	BlocksWritten  int64 // frames appended across all writers
	BytesWritten   int64 // chunk bytes written (framed, post-compression)
	RawBytes       int64 // payload bytes before compression
	BlocksRead     int64 // payloads decoded through Store.Payload
	BytesRead      int64 // frame bytes read for those payloads
	BlocksRestored int64 // blocks re-created into a runtime from a store
	VerifyErrors   int64 // problems found by Verify
}

// Snapshot returns the current package counters.
func Snapshot() Stats {
	return Stats{
		BlocksWritten:  statBlocksWritten.Load(),
		BytesWritten:   statBytesWritten.Load(),
		RawBytes:       statRawBytes.Load(),
		BlocksRead:     statBlocksRead.Load(),
		BytesRead:      statBytesRead.Load(),
		BlocksRestored: statBlocksRestored.Load(),
		VerifyErrors:   statVerifyErrors.Load(),
	}
}
