package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestFixture runs the check over a mini-module holding a dead exported
// function, a used one, a method reached only through io.ByteReader, a
// json-tagged field and an allowlisted function: it reports the dead
// function alone, at its file and line.
func TestFixture(t *testing.T) {
	allow, err := readAllow("testdata/fixture/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	dead, err := check([]string{"testdata/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n := report(&out, dead, allow)
	want := "testdata/fixture/internal/lib/lib.go:6: internal/lib.Dead is exported but no non-test file uses it\n"
	if n != 1 || out.String() != want {
		t.Fatalf("report (%d problems):\n%s\nwant:\n%s", n, out.String(), want)
	}

	// An allowlist line naming a used identifier is a problem too.
	allow["internal/lib.Used"] = "stale"
	out.Reset()
	if n := report(&out, dead, allow); n != 2 || !strings.Contains(out.String(), "allowlist: internal/lib.Used is used or gone") {
		t.Fatalf("stale allowlist line not reported (%d problems):\n%s", n, out.String())
	}
}

// TestReadAllowNeedsReason: an allowlist line without a reason is refused.
func TestReadAllowNeedsReason(t *testing.T) {
	path := t.TempDir() + "/allow.txt"
	if err := os.WriteFile(path, []byte("internal/lib.Kept\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllow(path); err == nil || !strings.Contains(err.Error(), "has no reason") {
		t.Fatalf("readAllow accepted a line without a reason: %v", err)
	}
}
