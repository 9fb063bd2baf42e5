package storage

import (
	"unsafe"

	"mrts/internal/bufpool"
)

// This file defines the ownership-transfer I/O path that makes the swap hot
// path allocation-free. The plain Store interface is copy-safe and simple;
// BufGetter/BufPutter are optional upgrades a store may implement so the
// layers above (the swap I/O scheduler, the remote-memory protocol) can move
// one pooled buffer through encode→write and read→decode instead of copying
// at every seam.
//
// Ownership rules (see also the bufpool package comment):
//
//   - GetBuf returns a buffer OWNED BY THE STORE's read path and read-only
//     to the caller, who must hand it back with ReleaseBuf of the same store
//     when done and must not retain it past that point. The FileStore reads
//     into a pooled buffer; the mmap-backed FileStore lends a mapped view
//     whose release unmaps; MemStore lends the stored buffer itself.
//   - PutBuf transfers ownership of data to the store. On success the store
//     keeps the buffer (MemStore) or disposes of it (recycling it when it is
//     pooled); on error the caller retains ownership — which is exactly what
//     a retry loop needs.
//   - Store.Put never retains data after returning (implementations copy or
//     write out), so the copy-fallbacks below are safe for every Store.

// BufGetter is the zero-copy/pooled read path. See the ownership rules above.
type BufGetter interface {
	// GetBuf returns the data stored under key in a buffer owned by the
	// store's read path; release it with ReleaseBuf.
	GetBuf(key Key) ([]byte, error)
	// ReleaseBuf returns a buffer obtained from GetBuf. Passing a slice of
	// the original buffer is allowed (fault injection truncates); passing
	// any other buffer is not.
	ReleaseBuf(data []byte)
}

// BufPutter is the ownership-transfer write path. See the rules above.
type BufPutter interface {
	// PutBuf stores data under key, taking ownership of the buffer on
	// success (the store disposes of it). On error the caller keeps
	// ownership, so the operation can be retried with the same buffer.
	PutBuf(key Key, data []byte) error
}

// GetBuf reads key through the store's pooled path when it has one, falling
// back to a plain Get. Either way the caller may read the result only until
// the matching ReleaseBuf(st, ...) call, and must not write it.
func GetBuf(st Store, key Key) ([]byte, error) {
	if bg, ok := st.(BufGetter); ok {
		return bg.GetBuf(key)
	}
	return st.Get(key)
}

// ReleaseBuf returns a buffer obtained from GetBuf(st, ...). For stores
// without a pooled path the (caller-owned) Get result is recycled into the
// arena, which is safe because Get always returns a fresh buffer.
func ReleaseBuf(st Store, data []byte) {
	if bg, ok := st.(BufGetter); ok {
		bg.ReleaseBuf(data)
		return
	}
	bufpool.Put(data)
}

// PutBuf writes data through the store's ownership-transfer path when it has
// one; otherwise it performs a plain Put and recycles the buffer on success
// (safe because Store.Put never retains data). On error the caller keeps the
// buffer, matching BufPutter semantics.
func PutBuf(st Store, key Key, data []byte) error {
	if bp, ok := st.(BufPutter); ok {
		return bp.PutBuf(key, data)
	}
	err := st.Put(key, data)
	if err == nil {
		bufpool.Put(data)
	}
	return err
}

// StatsReader is implemented by stores that count their traffic; the cluster
// reads it off the bottom-most (disk-level) store to report bytes moved.
type StatsReader interface {
	Stats() Stats
}

// --- MemStore ---

// GetBuf implements BufGetter: the returned buffer is the stored value
// itself, lent read-only until ReleaseBuf. A Put or Delete of key meanwhile
// replaces the value without touching the lent buffer.
func (s *MemStore) GetBuf(key Key) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.data[key]
	if !ok {
		return nil, ErrNotFound
	}
	s.stats.Gets++
	s.stats.BytesRead += uint64(len(d))
	if cap(d) > 0 {
		base := unsafe.SliceData(d)
		l := s.lent[base]
		l.n++
		s.lent[base] = l
	}
	return d, nil
}

// ReleaseBuf implements BufGetter: it ends one loan of the buffer data
// starts (a truncated view will do), and recycles the buffer when that was
// the last loan of one the store has let go.
func (s *MemStore) ReleaseBuf(data []byte) {
	if cap(data) == 0 {
		return
	}
	base := unsafe.SliceData(data)
	var dead []byte
	s.mu.Lock()
	switch l, ok := s.lent[base]; {
	case !ok:
	case l.n > 1:
		l.n--
		s.lent[base] = l
	default:
		delete(s.lent, base)
		dead = l.dead
	}
	s.mu.Unlock()
	if dead != nil {
		bufpool.Put(dead)
	}
}

// PutBuf implements BufPutter: the store keeps data itself, so the blob
// costs what its buffer holds and no copy. A buffer roomier than its
// length's size class (bufpool.Snug) is copied into one that fits instead,
// and released on success. A refused write leaves data with the caller.
func (s *MemStore) PutBuf(key Key, data []byte) error {
	if !bufpool.Snug(data) {
		err := s.Put(key, data)
		if err == nil {
			bufpool.Put(data)
		}
		return err
	}
	return s.keep(key, data)
}

// --- LatencyStore ---
// The wrapper forwards the pooled path inward so that wrapping a FileStore
// in a disk model does not silently reintroduce per-load allocations; the
// modeled service time is charged exactly as in Put/Get.

// GetBuf implements BufGetter.
func (s *LatencyStore) GetBuf(key Key) ([]byte, error) {
	d, err := GetBuf(s.inner, key)
	if err != nil {
		s.occupy(0)
		return nil, err
	}
	s.occupy(len(d))
	return d, nil
}

// ReleaseBuf implements BufGetter.
func (s *LatencyStore) ReleaseBuf(data []byte) { ReleaseBuf(s.inner, data) }

// PutBuf implements BufPutter.
func (s *LatencyStore) PutBuf(key Key, data []byte) error {
	s.occupy(len(data))
	return PutBuf(s.inner, key, data)
}
