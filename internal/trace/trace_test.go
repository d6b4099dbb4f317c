package trace

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Tick:       i,
			DC:         "DC 1",
			Pool:       "B",
			Server:     "b-0001",
			Generation: "gen1",
			Online:     rng.Intn(10) > 0,
			RPS:        rng.Float64() * 500,
			CPUPct:     rng.Float64() * 100,
			LatencyMs:  20 + rng.Float64()*40,
			NetBytes:   rng.Float64() * 2e7,
			NetPkts:    rng.Float64() * 2e4,
			MemPages:   rng.Float64() * 1.5e4,
			DiskQueue:  rng.Float64() * 4,
			DiskRead:   rng.Float64() * 4e7,
			Errors:     float64(rng.Intn(3)),
		}
	}
	return out
}

func TestCSVRoundTrip(t *testing.T) {
	recs := sampleRecords(50, 1)
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Error("CSV round trip mismatch")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := sampleRecords(50, 2)
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := collect("jsonl", &buf)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Error("JSONL round trip mismatch")
	}
}

func TestReadCSVEmpty(t *testing.T) {
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || got != nil {
		t.Errorf("empty stream: got %v, %v; want nil, nil", got, err)
	}
}

func TestReadCSVHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	if err := w.Write(Record{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Take just the header line.
	headerLine := strings.SplitN(buf.String(), "\n", 2)[0]
	got, err := ReadCSV(strings.NewReader(headerLine + "\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records, want 0", len(got))
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"bad header", "not,a,header\n"},
		{"bad tick", strings.Join(Header, ",") + "\nX,DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9\n"},
		{"bad online", strings.Join(Header, ",") + "\n1,DC 1,B,s,g,maybe,1,2,3,4,5,6,7,8,9\n"},
		{"bad float", strings.Join(Header, ",") + "\n1,DC 1,B,s,g,true,zz,2,3,4,5,6,7,8,9\n"},
		{"short row", strings.Join(Header, ",") + "\n1,DC 1,B\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tt.in))
			if err == nil {
				t.Fatal("want error")
			}
			if tt.name == "bad header" {
				return
			}
			if !strings.Contains(err.Error(), "row 2:") {
				t.Errorf("error %q does not name row 2", err)
			}
			// The same bad row behind 3000 good ones, decoded in chunks of
			// a few rows, a few hundred rows and one chunk: always row 3002.
			header, bad, _ := strings.Cut(tt.in, "\n")
			good := "7,DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9\n"
			in := header + "\n" + strings.Repeat(good, 3000) + bad + good
			for _, size := range []int{64, 20000, 1 << 20} {
				var n int
				_, err := decodeCSV(context.Background(), strings.NewReader(in), size, func(run []Record) error {
					n += len(run)
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), "row 3002:") {
					t.Errorf("chunks of %d bytes: error %v, want one naming row 3002", size, err)
				}
				if n != 3000 {
					t.Errorf("chunks of %d bytes: %d records emitted before the error, want 3000", size, n)
				}
			}
		})
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := collect("jsonl", strings.NewReader("{not json}\n")); err == nil {
		t.Error("bad JSON should error")
	}
	got, err := collect("jsonl", strings.NewReader(""))
	if err != nil || got != nil {
		t.Errorf("empty stream: got %v, %v", got, err)
	}
}

// decodeString runs Decode over in and collects its records.
func decodeString(in string) ([]Record, error) {
	var out []Record
	err := Decode(context.Background(), strings.NewReader(in), func(run []Record) error {
		out = append(out, run...)
		return nil
	})
	return out, err
}

// A misspelled field must not load as a zero: "cpu" and "latency" are not
// Record's "cpu_pct" and "latency_ms".
func TestDecodeJSONLRejectsUnknownField(t *testing.T) {
	good := `{"tick":0,"dc":"DC 1","pool":"B","server":"s1","online":true,"rps":10,"cpu_pct":50,"latency_ms":12}` + "\n"
	bad := `{"tick":1,"dc":"DC 1","pool":"B","server":"s1","online":true,"rps":10,"cpu":50,"latency":12}` + "\n"
	got, err := decodeString(good + bad)
	if err == nil {
		t.Fatalf("decoded %+v with no error", got)
	}
	for _, want := range []string{"line 2", `"cpu"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if len(got) != 1 || got[0].CPUPct != 50 {
		t.Errorf("records before the bad line = %+v, want the good one", got)
	}
}

// The format is told from the first byte that is not white space, so a JSON
// Lines trace that starts with a blank line is still JSON Lines.
func TestDecodeSniffsPastLeadingWhitespace(t *testing.T) {
	line := `{"tick":3,"dc":"DC 1","pool":"B","server":"s1","online":true,"rps":10,"cpu_pct":50,"latency_ms":12}`
	got, err := decodeString("\n \r\n\t" + line + "\n")
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Tick: 3, DC: "DC 1", Pool: "B", Server: "s1", Online: true, RPS: 10, CPUPct: 50, LatencyMs: 12}
	if len(got) != 1 || got[0] != want {
		t.Errorf("got %+v, want [%+v]", got, want)
	}
	// White space alone is still a CSV trace, as before: a header error.
	if _, err := decodeString("  \n"); err == nil {
		t.Error("a blank trace with no header decoded without error")
	}
}

// Property: any record with finite fields survives a CSV round trip.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(tick uint16, online bool, rps, cpu, lat float64) bool {
		r := Record{
			Tick: int(tick), DC: "DC 2", Pool: "D", Server: "d-1",
			Generation: "gen2", Online: online,
			RPS: clampFinite(rps), CPUPct: clampFinite(cpu), LatencyMs: clampFinite(lat),
		}
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		if err := w.Write(r); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clampFinite(v float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return 0
	}
	return v
}
