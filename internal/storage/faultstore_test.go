package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestFaultStoreFailFirstN(t *testing.T) {
	st := NewFault(NewMem(), FaultConfig{FailFirstGets: 2, FailFirstPuts: 1})
	// First put fails, second succeeds.
	if err := st.Put("k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first Put = %v, want ErrInjected", err)
	}
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatalf("second Put = %v", err)
	}
	// First two gets fail, third succeeds.
	for i := 0; i < 2; i++ {
		if _, err := st.Get("k"); !errors.Is(err, ErrInjected) {
			t.Fatalf("Get %d = %v, want ErrInjected", i, err)
		}
	}
	got, err := st.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("third Get = %q, %v", got, err)
	}
	// The budget is per key: a fresh key gets its own failures.
	if err := st.Put("k2", []byte("w")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put on fresh key = %v, want ErrInjected", err)
	}
	s := st.Stats()
	if s.InjectedGets != 2 || s.InjectedPuts != 2 {
		t.Fatalf("stats = %+v, want 2 gets / 2 puts", s)
	}
}

func TestFaultStoreKeyTargeting(t *testing.T) {
	st := NewFault(NewMem(), FaultConfig{FailFirstPuts: 1, Keys: []Key{"bad"}})
	if err := st.Put("good", []byte("v")); err != nil {
		t.Fatalf("untargeted Put = %v", err)
	}
	if err := st.Put("bad", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted Put = %v, want ErrInjected", err)
	}
}

func TestFaultStoreProbabilityDeterminism(t *testing.T) {
	seq := func() []bool {
		st := NewFault(NewMem(), FaultConfig{Seed: 99, GetFailProb: 0.5})
		st.inner.Put("k", []byte("v"))
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := st.Get("k")
			out = append(out, err != nil)
		}
		return out
	}
	a, b := seq(), seq()
	var faults int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: run A faulted=%v, run B faulted=%v", i, a[i], b[i])
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("prob 0.5 over %d ops injected %d faults", len(a), faults)
	}
}

func TestFaultStorePermanentClassification(t *testing.T) {
	tr := NewFault(NewMem(), FaultConfig{FailFirstGets: 1})
	if _, err := tr.Get("k"); err == nil || IsPermanent(err) {
		t.Fatalf("transient fault: err=%v IsPermanent=%v", err, IsPermanent(err))
	}
	pm := NewFault(NewMem(), FaultConfig{FailFirstGets: 1, Permanent: true})
	if _, err := pm.Get("k"); !IsPermanent(err) {
		t.Fatalf("permanent fault not classified permanent: %v", err)
	}
	if !IsPermanent(ErrNotFound) || !IsPermanent(ErrClosed) {
		t.Fatal("ErrNotFound/ErrClosed must be permanent")
	}
	if IsPermanent(nil) || IsPermanent(errors.New("disk hiccup")) {
		t.Fatal("nil/unknown errors must not be permanent")
	}
}

func TestFaultStoreCorruptGets(t *testing.T) {
	st := NewFault(NewMem(), FaultConfig{FailFirstGets: 1, CorruptGets: true})
	full := []byte("0123456789abcdef")
	st.inner.Put("k", full)
	got, err := st.Get("k")
	if err != nil {
		t.Fatalf("corrupting Get returned error %v", err)
	}
	if len(got) >= len(full) {
		t.Fatalf("corrupting Get returned %d bytes, want truncation below %d", len(got), len(full))
	}
	got, err = st.Get("k")
	if err != nil || !bytes.Equal(got, full) {
		t.Fatalf("second Get = %q, %v, want full blob", got, err)
	}
}

func TestRetryAbsorbsTransientFaults(t *testing.T) {
	fs := NewFault(NewMem(), FaultConfig{FailFirstGets: 2, FailFirstPuts: 2})
	r := NewRetrier(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond})
	if err := r.DoPutBuf(fs, "k", []byte("v")); err != nil {
		t.Fatalf("Put with retry budget = %v", err)
	}
	data, err := r.DoGetBuf(fs, "k")
	if err != nil || string(data) != "v" {
		t.Fatalf("Get with retry budget = %q, %v", data, err)
	}
	if n := r.Retries(); n != 4 {
		t.Fatalf("Retries() = %d, want 4 (2 put + 2 get)", n)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	fs := NewFault(NewMem(), FaultConfig{FailFirstGets: 10})
	fs.inner.Put("k", []byte("v"))
	var observed int
	r := NewRetrier(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		OnRetry:     func(key Key, attempt int, err error) { observed++ },
	})
	if _, err := r.DoGetBuf(fs, "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("exhausted Get = %v, want ErrInjected", err)
	}
	if n := r.Retries(); n != 2 {
		t.Fatalf("Retries() = %d, want 2 (3 attempts)", n)
	}
	if observed != 2 {
		t.Fatalf("OnRetry observed %d retries, want 2", observed)
	}
}

func TestRetrySkipsPermanentErrors(t *testing.T) {
	fs := NewFault(NewMem(), FaultConfig{FailFirstGets: 10, Permanent: true, Keys: []Key{"k"}})
	fs.inner.Put("k", []byte("v"))
	r := NewRetrier(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond})
	if _, err := r.DoGetBuf(fs, "k"); !IsPermanent(err) {
		t.Fatalf("permanent Get = %v, want permanent", err)
	}
	if n := r.Retries(); n != 0 {
		t.Fatalf("Retries() = %d, want 0 for a permanent error", n)
	}
	// A missing key is permanent too: no retries burned on ErrNotFound.
	if _, err := r.DoGetBuf(fs, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if n := r.Retries(); n != 0 {
		t.Fatalf("Retries() = %d after ErrNotFound, want 0", n)
	}
}

func TestRetryZeroPolicySingleAttempt(t *testing.T) {
	fs := NewFault(NewMem(), FaultConfig{FailFirstPuts: 1})
	r := NewRetrier(RetryPolicy{})
	if err := r.DoPutBuf(fs, "k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put without retry = %v, want ErrInjected", err)
	}
	if n := r.Retries(); n != 0 {
		t.Fatalf("Retries() = %d, want 0", n)
	}
}

// TestLatencyStoreChargesMissesAndMetadata pins the disk-model accounting:
// a Get miss still pays a seek (the head moved before the lookup failed),
// and Delete/Has are charged like any other disk command.
func TestLatencyStoreChargesMissesAndMetadata(t *testing.T) {
	const seek = 3 * time.Millisecond
	st := NewLatency(NewMem(), DiskModel{Seek: seek})
	defer st.Close()

	elapsed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	for name, f := range map[string]func(){
		"get-miss": func() {
			if _, err := st.Get("missing"); err != ErrNotFound {
				t.Fatalf("Get(missing) = %v", err)
			}
		},
		"delete": func() { st.Delete("missing") },
		"has":    func() { st.Has("missing") },
	} {
		if d := elapsed(f); d < seek {
			t.Fatalf("%s took %v, want at least one seek (%v)", name, d, seek)
		}
	}
}

func TestFaultStoreConcurrent(t *testing.T) {
	st := NewFault(NewMem(), FaultConfig{Seed: 3, GetFailProb: 0.3, PutFailProb: 0.3})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := Key(fmt.Sprintf("k%d-%d", g, i%8))
				st.Put(k, []byte("v"))
				st.Get(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	s := st.Stats()
	if s.InjectedGets == 0 || s.InjectedPuts == 0 {
		t.Fatalf("expected injected faults under concurrency, got %+v", s)
	}
}
