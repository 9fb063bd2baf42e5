package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mrts/internal/bufpool"
)

// FileStore keeps each object in its own file under a spool directory — the
// "regular files" backend of the paper's storage layer. Keys are sanitized
// into file names; writes go through a temp file + rename so a crashed
// process never leaves a torn object behind.
type FileStore struct {
	dir   string
	mu    sync.RWMutex
	stats Stats
}

// NewFile returns a store rooted at dir, creating it if needed.
func NewFile(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

func (s *FileStore) path(key Key) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, string(key))
	return filepath.Join(s.dir, name+".obj")
}

// Put implements Store.
func (s *FileStore) Put(key Key, data []byte) error {
	p := s.path(key)
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	s.mu.Lock()
	s.stats.Puts++
	s.stats.BytesWritten += uint64(len(data))
	s.mu.Unlock()
	return nil
}

// Get implements Store.
func (s *FileStore) Get(key Key) ([]byte, error) {
	d, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("storage: get %q: %w", key, err)
	}
	s.mu.Lock()
	s.stats.Gets++
	s.stats.BytesRead += uint64(len(d))
	s.mu.Unlock()
	return d, nil
}

// Delete implements Store.
func (s *FileStore) Delete(key Key) error {
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: delete %q: %w", key, err)
	}
	s.mu.Lock()
	s.stats.Deletes++
	s.mu.Unlock()
	return nil
}

// Has implements Store.
func (s *FileStore) Has(key Key) bool {
	_, err := os.Stat(s.path(key))
	return err == nil
}

// Close implements Store. The spool directory is left in place.
func (s *FileStore) Close() error { return nil }

// GetBuf implements BufGetter: the file is read into a pooled buffer sized
// from its stat, so a demand load costs no heap allocation in steady state.
func (s *FileStore) GetBuf(key Key) ([]byte, error) {
	f, err := os.Open(s.path(key))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("storage: get %q: %w", key, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: get %q: %w", key, err)
	}
	d := bufpool.Get(int(fi.Size()))
	if _, err := io.ReadFull(f, d); err != nil {
		bufpool.Put(d)
		return nil, fmt.Errorf("storage: get %q: %w", key, err)
	}
	s.mu.Lock()
	s.stats.Gets++
	s.stats.BytesRead += uint64(len(d))
	s.mu.Unlock()
	return d, nil
}

// ReleaseBuf implements BufGetter.
func (s *FileStore) ReleaseBuf(data []byte) { bufpool.Put(data) }

// PutBuf implements BufPutter: the bytes are written out (FileStore retains
// nothing), then the caller's buffer is recycled.
func (s *FileStore) PutBuf(key Key, data []byte) error {
	err := s.Put(key, data)
	if err == nil {
		bufpool.Put(data)
	}
	return err
}

// Stats returns a snapshot of the store counters.
func (s *FileStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}
