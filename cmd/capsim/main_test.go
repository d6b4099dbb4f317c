package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"headroom/internal/leakcheck"
)

func TestRejectsInvalidFlags(t *testing.T) {
	cases := [][]string{
		{"-days", "-1"},
		{"-days", "0"},
		{"-format", "xml"},
		{"-pools", "no-such-pool"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, os.Stdout); err == nil {
			t.Errorf("run(%v) succeeded, want usage error", args)
		}
	}
}

// TestHelpIsNoError: -h prints the usage and succeeds, writing no trace.
func TestHelpIsNoError(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &out); err != nil || out.Len() > 0 {
		t.Errorf("run(-h) = %v with %d bytes out, want nil and none", err, out.Len())
	}
}

// TestTraceBytesPinned: the trace of `-days 1 -pools B -seed 7` is, byte for
// byte, what the encoding/csv writer (and the JSON Lines writer) wrote before
// the codec was rewritten — to a file or to stdout, on one CPU or four.
// cmd/capplan's tests pin the plan of the same trace.
func TestTraceBytesPinned(t *testing.T) {
	leakcheck.Check(t)
	const (
		csvSum   = "06bc61d290b1227a1bf72486347b79b3cc0115bee572b78f305b64ff846d9e6f"
		jsonlSum = "937f0e493ba0ba4f1256a5da4a3f6728c69d080bd9784baa7804942858a50415"
	)
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	args := []string{"-days", "1", "-pools", "B", "-seed", "7"}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var stdout bytes.Buffer
		err := run(context.Background(), args, &stdout)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if got := sum(stdout.Bytes()); got != csvSum {
			t.Errorf("GOMAXPROCS %d: stdout CSV sha256 %s, want %s", procs, got, csvSum)
		}
	}
	file := filepath.Join(t.TempDir(), "b.csv")
	if err := run(context.Background(), append(args, "-out", file), os.Stdout); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(file); err != nil || sum(b) != csvSum {
		t.Errorf("-out file: sha256 %s (%v), want %s", sum(b), err, csvSum)
	}
	var stdout bytes.Buffer
	if err := run(context.Background(), append(args, "-format", "jsonl"), &stdout); err != nil {
		t.Fatal(err)
	}
	if got := sum(stdout.Bytes()); got != jsonlSum {
		t.Errorf("JSON Lines sha256 %s, want %s", got, jsonlSum)
	}
}

// TestWriteErrorFails: a trace that could not be written is an error, not a
// truncated file and exit 0. /dev/full refuses every write with ENOSPC.
func TestWriteErrorFails(t *testing.T) {
	leakcheck.Check(t)
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, format := range []string{"csv", "jsonl"} {
		err := run(context.Background(), []string{"-days", "1", "-pools", "G", "-format", format, "-out", "/dev/full"}, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "no space left") {
			t.Errorf("%s to a full device: err = %v, want ENOSPC", format, err)
		}
	}
}

// TestPoolFilterRejectsUnknownAndEmptyNames: a -pools list the fleet cannot
// satisfy fails with the message capserved answers the same list with, and
// writes no trace of the pools it did know.
func TestPoolFilterRejectsUnknownAndEmptyNames(t *testing.T) {
	for pools, want := range map[string]string{
		"B,Zzz":     "unknown pools: Zzz",
		"Zzz,B,Yyy": "unknown pools: Yyy, Zzz",
		"B,":        "pools contains an empty name",
	} {
		var stdout bytes.Buffer
		err := run(context.Background(), []string{"-days", "1", "-pools", pools}, &stdout)
		if err == nil || err.Error() != want {
			t.Errorf("-pools %q: err = %v, want %q", pools, err, want)
		}
		if stdout.Len() != 0 {
			t.Errorf("-pools %q wrote %d bytes of trace", pools, stdout.Len())
		}
	}
}
