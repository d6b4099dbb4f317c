package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"headroom"
	"headroom/internal/leakcheck"
	"headroom/internal/trace"
)

func TestRejectsInvalidFlags(t *testing.T) {
	cases := [][]string{
		{}, // missing -in
		{"-in", "t.csv", "-budget", "0"},
		{"-in", "t.csv", "-budget", "-3"},
		{"-in", "t.csv", "-shards", "-1"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, os.Stdin, os.Stdout); err == nil {
			t.Errorf("run(%v) succeeded, want usage error", args)
		}
	}
}

// TestEmptyTrace: a trace with no records is still refused by name now that
// it is streamed — whether it is empty, only a header, or only blank lines.
func TestEmptyTrace(t *testing.T) {
	leakcheck.Check(t)
	header := strings.Join(trace.Header, ",") + "\n"
	for _, in := range []string{"", header, "\n\n", "\n" + header + "\n"} {
		err := run(context.Background(), []string{"-in", "-"}, strings.NewReader(in), io.Discard)
		if err == nil || err.Error() != `trace "-" is empty` {
			t.Errorf("input %q: err = %v, want the empty-trace error", in, err)
		}
	}
	file := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-in", file}, os.Stdin, io.Discard)
	if err == nil || err.Error() != fmt.Sprintf("trace %q is empty", file) {
		t.Errorf("empty file: err = %v, want the empty-trace error", err)
	}
	// A trace that does not parse names its row.
	err = run(context.Background(), []string{"-in", "-"}, strings.NewReader(header+"1,DC 1,B\n"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "read trace: trace: row 2:") {
		t.Errorf("short row: err = %v", err)
	}
}

// poolDay is the trace `capsim -days 1 -pools B -seed 7` writes (cmd/capsim's
// tests pin the same bytes to the same digests).
func poolDay(t *testing.T, jsonl bool) []byte {
	t.Helper()
	cfg := headroom.DefaultFleet(7)
	for _, pc := range cfg.Pools {
		if pc.Name == "B" {
			cfg.Pools = []headroom.PoolConfig{pc}
			break
		}
	}
	var buf bytes.Buffer
	cw, jw := trace.NewCSVWriter(&buf), trace.NewJSONLWriter(&buf)
	write, flush := cw.WriteRun, cw.Flush
	if jsonl {
		write, flush = trace.EachRecord(jw.Write), jw.Flush
	}
	if err := headroom.NewSimSource(cfg, 1).Stream(context.Background(), write); err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sum(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }

// TestPlanTablePinned: the table printed for the pinned pool-day is, byte for
// byte, the one printed before traces were streamed (when the whole file was
// read into memory and replayed in shards) — from a file or a pipe, CSV or
// JSON Lines, for any -shards and on one CPU or four.
func TestPlanTablePinned(t *testing.T) {
	leakcheck.Check(t)
	const (
		csvSum   = "06bc61d290b1227a1bf72486347b79b3cc0115bee572b78f305b64ff846d9e6f"
		jsonlSum = "937f0e493ba0ba4f1256a5da4a3f6728c69d080bd9784baa7804942858a50415"
		tableSum = "2eeb8bcf03ccd6423000e64ec970b412c290cf2d0017607ad43bf1a8aee09dd3"
	)
	csv, jsonl := poolDay(t, false), poolDay(t, true)
	if sum(csv) != csvSum || sum(jsonl) != jsonlSum {
		t.Fatalf("the pool-day's bytes moved: CSV %s, JSON Lines %s", sum(csv), sum(jsonl))
	}
	dir := t.TempDir()
	csvFile, jsonlFile := filepath.Join(dir, "b.csv"), filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(csvFile, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	// The name says nothing: the first byte tells the format.
	if err := os.WriteFile(jsonlFile, jsonl, 0o644); err != nil {
		t.Fatal(err)
	}
	plan := func(name string, stdin io.Reader, args ...string) {
		t.Helper()
		var out bytes.Buffer
		if err := run(context.Background(), append(args, "-budget", "5"), stdin, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sum(out.Bytes()); got != tableSum {
			t.Errorf("%s: table sha256 %s, want %s\n%s", name, got, tableSum, out.Bytes())
		}
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		plan(fmt.Sprintf("file, GOMAXPROCS %d", procs), os.Stdin, "-in", csvFile)
		runtime.GOMAXPROCS(prev)
	}
	for _, shards := range []string{"0", "1", "3"} {
		plan("file, -shards "+shards, os.Stdin, "-in", csvFile, "-shards", shards)
	}
	// A pipe hands the bytes over in pieces of its own choosing.
	pr, pw := io.Pipe()
	go func() {
		_, err := pw.Write(csv)
		pw.CloseWithError(err)
	}()
	plan("pipe", pr, "-in", "-")
	plan("JSON Lines file", os.Stdin, "-in", jsonlFile)
}
