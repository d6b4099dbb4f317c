package diffcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"sync/atomic"
	"testing"
	"time"

	"headroom"
	"headroom/internal/faults"
	"headroom/internal/leakcheck"
	"headroom/internal/server"
)

var (
	quick     = flag.Bool("quick", false, "run a reduced differential case count")
	diffcases = flag.Int("diffcases", 100, "randomized cases per TestDifferentialPaths run")
	rowseeds  = flag.Int("rowseeds", 20, "generated cases whose rows TestRowsRoundTrip puts through the wire")
)

// runCounter advances once per test invocation so repeated runs draw fresh
// seed ranges: `go test -count=2` covers 2×diffcases distinct cases instead
// of replaying the same ones.
var runCounter atomic.Int64

// TestDifferentialPaths is the property suite: N generated cases, each
// executed through the sequential, sharded, distributed and cache-served
// paths and cross-checked for byte identity (fault-free) or identical
// degradation (faulted). Any failure prints the case's seed; replay it with
// `go run ./cmd/capcheck -seed N -v`.
func TestDifferentialPaths(t *testing.T) {
	leakcheck.Check(t)
	n := *diffcases
	if *quick {
		n = 16
	}
	if testing.Short() {
		n = 8
	}
	base := (runCounter.Add(1) - 1) * int64(n)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		seed := base + int64(i) + 1
		c := Generate(seed)
		rep, err := RunCase(ctx, c, Options{LeakGrace: 10 * time.Second})
		if err != nil {
			t.Fatalf("case %s\nharness error: %v", c, err)
		}
		if rep.Diff != "" {
			t.Fatalf("case %s\nDIVERGED: %s", c, rep.Diff)
		}
	}
	t.Logf("%d differential cases (seeds %d..%d) agreed on all paths", n, base+1, base+int64(n))
}

// TestRegressionSeeds pins the generator seeds whose divergences drove fixes:
// they must stay green forever regardless of what the randomized sweep draws.
func TestRegressionSeeds(t *testing.T) {
	leakcheck.Check(t)
	seeds := []struct {
		seed int64
		why  string
	}{
		{3, "permanent fault's shard-mates join failed_pools (pools [C E G], 2 shards)"},
		{4, "a one-shot transient fault degrades its shard alike on the sharded, dist and served paths"},
		{6, "panic in a sequential (single-shard) run must degrade, not crash the process"},
		{27, "plan rows reduced per shard: a permanent fault on the pool that is a shard of its own (pools [A D E H], 3 shards) leaves the survivors' rows the merged plan's"},
	}
	ctx := context.Background()
	for _, s := range seeds {
		c := Generate(s.seed)
		rep, err := RunCase(ctx, c, Options{LeakGrace: 10 * time.Second})
		if err != nil {
			t.Fatalf("case %s (%s)\nharness error: %v", c, s.why, err)
		}
		if rep.Diff != "" {
			t.Fatalf("case %s (%s)\nDIVERGED: %s", c, s.why, rep.Diff)
		}
	}
}

// TestRowsRoundTrip pins the row wire on real rows: for every generated case
// (seeds 1..rowseeds; CI's diff job runs 200) the rows a shard would answer —
// []PoolPlan for a plan case, []PoolSummary for a simulate case — are a byte
// fixed point of marshal → unmarshal → marshal, so a coordinator that decodes
// a worker's rows and renders them writes the bytes the worker would have.
func TestRowsRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= int64(*rowseeds); seed++ {
		c := Generate(seed)
		c.Fault = nil
		if err := c.Req.SimulateRequest.Normalize(); err != nil {
			t.Fatal(err)
		}
		res := c.runLibrary(context.Background(), 1)
		if res.Err != "" {
			t.Fatalf("case %s: %s", c, res.Err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(res.JSON, &doc); err != nil {
			t.Fatal(err)
		}
		field, wire := "pools", rewire[server.PoolSummary]
		if c.Kind == "plan" {
			field, wire = "plans", rewire[headroom.PoolPlan]
		}
		first := doc[field]
		again, err := wire(first)
		if err != nil {
			t.Fatalf("case %s: %v", c, err)
		}
		if len(first) < 100 || !bytes.Equal(first, again) {
			t.Fatalf("case %s: %d bytes of rows are not a fixed point of the wire, first difference at %s", c, len(first), FirstDiff(first, again))
		}
	}
}

// rewire decodes rendered rows as a coordinator does and renders them again.
func rewire[R any](raw []byte) ([]byte, error) {
	var rows []R
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, err
	}
	return json.Marshal(rows)
}

// FuzzDifferential feeds generator seeds to the full differential harness.
// The seed corpus covers every fault kind crossed with both job kinds, plus
// the minimized seeds of past divergences; new failures found by `go test
// -fuzz=FuzzDifferential` land in testdata/fuzz and become regressions.
func FuzzDifferential(f *testing.F) {
	// simulate × {permanent, none, panic, transient} = 1, 2, 6, 8;
	// plan × {permanent, transient, none, panic} = 3, 4, 5, 41.
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 8, 41} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := Generate(seed)
		rep, err := RunCase(context.Background(), c, Options{LeakGrace: 10 * time.Second})
		if err != nil {
			t.Fatalf("case %s\nharness error: %v", c, err)
		}
		if rep.Diff != "" {
			t.Fatalf("case %s\nDIVERGED: %s", c, rep.Diff)
		}
	})
}

// TestSkippedResubmitIsNotAnError holds the served-again path of a one-shot
// fault case (seed 4: a transient fault) to a deliberate skip: no error, a
// reason, and "skipped (…)" in capcheck's status line. A real served-again
// failure still reports, and fails a fault-free case, as an error.
func TestSkippedResubmitIsNotAnError(t *testing.T) {
	leakcheck.Check(t)
	c := Generate(4)
	if c.Fault == nil || c.Fault.Kind != faults.Transient {
		t.Fatalf("seed 4 is no longer a transient case: %s", c)
	}
	rep, err := RunCase(context.Background(), c, Options{LeakGrace: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	again := rep.Paths[len(rep.Paths)-1]
	if again.Name != "served-again" || again.Err != "" || again.Skipped == "" {
		t.Fatalf("served-again = %+v, want skipped without error", again)
	}
	if got := again.Status(); got != "skipped ("+skippedResubmit+")" {
		t.Errorf("status = %q", got)
	}

	failed := PathResult{Name: "served-again", Err: "job state failed"}
	if got := failed.Status(); got != "error: job state failed" {
		t.Errorf("status of a failed path = %q", got)
	}
	paths := []PathResult{{Name: "sequential"}, {Name: "sharded(2)"}, {Name: "dist(3)"}, {Name: "served"}, failed}
	if diff := (Case{}).compare(context.Background(), paths); diff != "served-again failed: job state failed" {
		t.Errorf("fault-free case with a failed resubmission: diff = %q", diff)
	}
}
