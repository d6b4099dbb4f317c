package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Every end-to-end run starts its own binary as `-box`; under go test that
// is the test binary, which therefore serves the box reference as well.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-box" {
		if err := serveBox(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func smokeConfig(t *testing.T, workload string) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 7, seconds: 0.5, smoke: true}.config(root)
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {90, 46}, {100, 50}, {25, 20}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The highest percentile reported is the highest with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the acceptance rule for spreads uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// Self time is the span minus the union of its children, clipped to it:
// overlapping children are not subtracted twice, a child that outlives its
// parent only counts inside it, and an unclosed span is left out.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "shard", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "shard", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 1, Name: "open", Start: 5, End: -1},
	}
	rows := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	ns := func(v float64) float64 { return v * float64(time.Millisecond) }
	if got := ns(rows["parent"].SelfMs); got != 30 {
		t.Errorf("parent self = %v ns, want 100 - (60 + 10) = 30", got)
	}
	if got := rows["shard"]; got.Count != 2 || ns(got.TotalMs) != 80 || ns(got.SelfMs) != 80 {
		t.Errorf("shard row = %+v, want count 2, total = self = 80 ns", got)
	}
	if _, ok := rows["open"]; ok {
		t.Error("an unclosed span made it into the table")
	}
}

func TestMaxOverlap(t *testing.T) {
	at := func(ms int) *time.Time { t := time.Unix(0, int64(ms)*int64(time.Millisecond)); return &t }
	views := []jobView{
		{Started: at(0), Finished: at(100)},
		{Started: at(10), Finished: at(100)},
		{Started: at(100), Finished: at(101)},
		{Started: at(200), Finished: at(201)},
		{}, // never started: not counted
	}
	if got := maxOverlap(views); got != 3 {
		t.Errorf("maxOverlap = %d, want 3", got)
	}
}

// A refused request and a wrong answer are both failed operations: they
// raise error_frac and leave no latency sample behind.
func TestFailureAccounting(t *testing.T) {
	cfg := smokeConfig(t, "cold_plan")
	w, _ := workloadNamed("cold_plan")
	e := newEnv(cfg)
	defer e.close()
	ctx := context.Background()
	if err := w.setup(ctx, e); err != nil {
		t.Fatal(err)
	}
	real := e.base

	var win tally
	win.add(coldOp(ctx, e, false)) // seed 0 of the run: has an oracle
	if win.failed != 0 || len(win.samples) != 1 {
		t.Fatalf("honest server: attempted %d failed %d reasons %v", win.attempted, win.failed, win.reasons)
	}

	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	defer refuse.Close()
	e.base = refuse.URL
	win.add(coldOp(ctx, e, false))
	if win.attempted != 2 || win.failed != 1 || len(win.samples) != 1 {
		t.Fatalf("after a 503: attempted %d failed %d samples %d, want 2 1 1", win.attempted, win.failed, len(win.samples))
	}

	// One digit of the result flipped on the way back: still a well-formed,
	// plausible plan, but not the oracle's bytes.
	tamper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Post(real+r.URL.RequestURI(), "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		w.WriteHeader(resp.StatusCode)
		w.Write(flipDigit(t, body))
	}))
	defer tamper.Close()
	e.base = tamper.URL
	e.next.Store(1) // seed 1 of the run: has an oracle, not yet cached
	s := coldOp(ctx, e, false)
	if s.err == nil || !strings.Contains(s.err.Error(), "oracle") {
		t.Fatalf("flipped byte: err = %v, want an oracle mismatch", s.err)
	}
	win.add(s)
	if win.attempted != 3 || win.failed != 2 || len(win.samples) != 1 {
		t.Fatalf("after a flipped byte: attempted %d failed %d samples %d, want 3 2 1", win.attempted, win.failed, len(win.samples))
	}
	if got, want := win.errorFrac(), 2.0/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("error_frac = %v, want %v", got, want)
	}
	if len(win.opMs()) != 1 {
		t.Errorf("failed operations left latency samples: %v", win.opMs())
	}
}

// flipDigit changes one digit in the fraction of the result's savings_frac.
func flipDigit(t *testing.T, body []byte) []byte {
	t.Helper()
	key := []byte(`"savings_frac": 0.`)
	i := bytes.Index(body, key)
	if i < 0 {
		t.Fatalf("no savings_frac in %s", clip(body))
	}
	out := append([]byte(nil), body...)
	at := i + len(key)
	out[at] = '0' + (out[at]-'0'+1)%10
	return out
}

// A cache hit whose bytes differ from the miss that warmed the key fails.
func TestHotDigestCatchesFlippedByte(t *testing.T) {
	cfg := smokeConfig(t, "cache_hot")
	w, _ := workloadNamed("cache_hot")
	e := newEnv(cfg)
	defer e.close()
	ctx := context.Background()
	if err := w.setup(ctx, e); err != nil {
		t.Fatal(err)
	}
	if s := hotOp(ctx, e, false); s.err != nil {
		t.Fatalf("honest hit: %v", s.err)
	}
	e.hot[1].sum[0] ^= 1
	if s := hotOp(ctx, e, false); s.err == nil {
		t.Fatal("a hit that does not hash to its miss passed")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is BENCHMARK.json as the contract shapes it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json and the program name the same workloads and metrics, in
// the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	var e2e []metricDef
	hasSetup := false
	for _, m := range file.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", file.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
}

// lastLine decodes the contract's JSON object from what print wrote.
func lastLine(t *testing.T, out []byte) (obj struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return obj
}

func checkMetrics(t *testing.T, got map[string]metric, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
}

// Every workload runs end to end on the smoke profile: all operations
// correct, every end-to-end metric present and non-zero, and the printed
// result and the -out file both round-trip.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads for half a second each")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(context.Background(), w, smokeConfig(t, w.name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v attempted %d failed %d notes %v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			var out bytes.Buffer
			res.print(&out)
			obj := lastLine(t, out.Bytes())
			if !obj.Correct || obj.Attempted != res.Attempted || obj.Failed != 0 {
				t.Errorf("last line says %+v", obj)
			}
			checkMetrics(t, obj.Metrics, endToEnd)
			for name, m := range obj.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
			if w.name == "dup_burst" && res.Extra["bystander_p50_ms"].Value <= 0 {
				t.Errorf("dup_burst reported no bystander latency: %+v", res.Extra)
			}

			path := filepath.Join(t.TempDir(), "out.json")
			if err := writeJSON(path, res); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Metrics, res.Metrics) || back.Workload != w.name {
				t.Errorf("-out file does not round-trip: %+v", back)
			}
		})
	}
}

// The traced run reports every per-layer metric, the layers a workload
// bypasses read 0, and the ones it passes through do not.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two traced workloads")
	}
	for name, probes := range map[string]struct{ nonZero, zero []string }{
		"dist3_plan": {
			nonZero: []string{"sim.gen_rec_per_s", "headroom.ingest_rec_per_s", "core.plan_ms", "metrics.wire_mb",
				"server.shard_rtt_ms", "server.envelope_ratio", "dist.dispatch_us", "jobs.run_ms", "jobcache.key_us", "alloc_mb_per_op"},
			zero: []string{"trace.csv_b_per_rec", "capsim.wall_ms", "bystander_p50_ms", "jobcache.hit_ratio", "error_frac"},
		},
		"cli_pipe": {
			nonZero: []string{"trace.csv_write_rec_per_s", "trace.csv_read_rec_per_s", "headroom.replay_rec_per_s",
				"capsim.wall_ms", "capplan.wall_ms", "capplan.peak_rss_mb", "core.plan_ms", "metrics.add_rec_per_s"},
			zero: []string{"metrics.wire_mb", "jobs.run_ms", "server.decode_us", "alloc_mb_per_op"},
		},
	} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadNamed(name)
			res, err := runTraced(context.Background(), w, smokeConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("not correct: %v", res.Notes)
			}
			var out bytes.Buffer
			res.print(&out)
			checkMetrics(t, lastLine(t, out.Bytes()).Metrics, perLayer)
			for _, m := range probes.nonZero {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0 on %s", m, res.Metrics[m].Value, name)
				}
			}
			for _, m := range probes.zero {
				if res.Metrics[m].Value != 0 {
					t.Errorf("%s = %v, want 0 on %s", m, res.Metrics[m].Value, name)
				}
			}
			if len(res.SelfTime) == 0 {
				t.Error("no self-time table")
			}
			if raw, err := chromeTrace(res.spans); err != nil || !json.Valid(raw) {
				t.Errorf("chrome trace: %v", err)
			}
		})
	}
}
