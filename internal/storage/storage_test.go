package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":     NewMem(),
		"file":    fs,
		"latency": NewLatency(NewMem(), DiskModel{Seek: time.Microsecond, BytesPerSec: 1 << 30}),
	}
}

func TestPutGetDelete(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			if _, err := st.Get("missing"); err != ErrNotFound {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			if st.Has("k") {
				t.Fatal("Has before Put")
			}
			data := []byte("some payload")
			if err := st.Put("k", data); err != nil {
				t.Fatal(err)
			}
			if !st.Has("k") {
				t.Fatal("Has after Put")
			}
			got, err := st.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("Get = %q", got)
			}
			// Overwrite.
			if err := st.Put("k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			got, _ = st.Get("k")
			if string(got) != "v2" {
				t.Fatalf("after overwrite: %q", got)
			}
			if err := st.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if st.Has("k") {
				t.Fatal("Has after Delete")
			}
			if err := st.Delete("k"); err != nil {
				t.Fatal("double delete should be fine:", err)
			}
		})
	}
}

func TestGetReturnsCopy(t *testing.T) {
	st := NewMem()
	orig := []byte{1, 2, 3}
	if err := st.Put("k", orig); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Get("k")
	got[0] = 99
	again, _ := st.Get("k")
	if again[0] != 1 {
		t.Fatal("Get does not return a copy")
	}
	// Mutating the original after Put must not affect the store either.
	orig[1] = 77
	again, _ = st.Get("k")
	if again[1] != 2 {
		t.Fatal("Put does not copy")
	}
}

func TestFileStoreKeySanitization(t *testing.T) {
	fs, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	weird := Key("obj/3:sub\\x*?")
	if err := fs.Put(weird, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get(weird)
	if err != nil || string(got) != "v" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("persist", []byte("disk")); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	fs2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Get("persist")
	if err != nil || string(got) != "disk" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestStatsCounting(t *testing.T) {
	st := NewMem()
	st.Put("a", make([]byte, 10))
	st.Put("b", make([]byte, 20))
	st.Get("a")
	st.Delete("b")
	s := st.Stats()
	if s.Puts != 2 || s.Gets != 1 || s.Deletes != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.BytesWritten != 30 || s.BytesRead != 10 {
		t.Fatalf("bytes %+v", s)
	}
}

func TestDiskModelServiceTime(t *testing.T) {
	m := DiskModel{Seek: 5 * time.Millisecond, BytesPerSec: 1000}
	if d := m.ServiceTime(0); d != 5*time.Millisecond {
		t.Errorf("ServiceTime(0) = %v", d)
	}
	if d := m.ServiceTime(500); d != 5*time.Millisecond+500*time.Millisecond {
		t.Errorf("ServiceTime(500) = %v", d)
	}
	var zero DiskModel
	if d := zero.ServiceTime(1 << 30); d != 0 {
		t.Errorf("zero model = %v", d)
	}
}

func TestLatencyStoreInjectsDelay(t *testing.T) {
	st := NewLatency(NewMem(), DiskModel{Seek: 30 * time.Millisecond})
	start := time.Now()
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 25*time.Millisecond {
		t.Errorf("Put took %v, want >= ~30ms", e)
	}
}

func TestRoundtripProperty(t *testing.T) {
	st := NewMem()
	f := func(key string, val []byte) bool {
		k := Key(key)
		if err := st.Put(k, val); err != nil {
			return false
		}
		got, err := st.Get(k)
		return err == nil && bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						k := Key(fmt.Sprintf("g%d-i%d", g, i))
						if err := st.Put(k, []byte{byte(g), byte(i)}); err != nil {
							t.Error(err)
							return
						}
						d, err := st.Get(k)
						if err != nil || d[0] != byte(g) || d[1] != byte(i) {
							t.Errorf("roundtrip %s failed: %v %v", k, d, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
