// Package trace defines the record schema produced by the fleet simulator
// and consumed by the capacity-planning pipeline, together with CSV and
// JSON-Lines codecs.
//
// The paper's pipeline ingested 30 PB of performance-counter traces sampled
// with a 100 ns timer and averaged over 120-second windows. Each Record here
// is one such window for one server: the offered workload, the resource
// counters, the QoS observation and the availability state.
package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"headroom/internal/obs"
)

// Record is one 120-second observation window for one server.
type Record struct {
	// Tick is the window index since the start of the trace.
	Tick int `json:"tick"`
	// DC is the datacenter name.
	DC string `json:"dc"`
	// Pool is the micro-service server pool name.
	Pool string `json:"pool"`
	// Server is the server identifier, unique within a pool+DC.
	Server string `json:"server"`
	// Generation is the hardware generation of the server.
	Generation string `json:"generation"`
	// Online reports whether the server was serving during this window.
	Online bool `json:"online"`

	// RPS is the request rate served by this server in the window.
	RPS float64 `json:"rps"`
	// CPUPct is the mean CPU utilisation percentage (0-100).
	CPUPct float64 `json:"cpu_pct"`
	// LatencyMs is the 95th-percentile request latency in milliseconds.
	LatencyMs float64 `json:"latency_ms"`

	// Secondary resource counters (the paper's Figure 2 set).
	NetBytes  float64 `json:"net_bytes"`
	NetPkts   float64 `json:"net_pkts"`
	MemPages  float64 `json:"mem_pages"`
	DiskQueue float64 `json:"disk_queue"`
	DiskRead  float64 `json:"disk_read"`
	Errors    float64 `json:"errors"`
}

// EachRecord adapts a per-record callback to a consumer of record runs: fn
// sees every record of every run, in order, and its first error is returned.
func EachRecord(fn func(Record) error) func([]Record) error {
	return func(run []Record) error {
		for i := range run {
			if err := fn(run[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// EmitRuns streams a record slice through emit as runs of at most 1024
// records — sub-slices of recs, not copies — checking for cancellation before
// each.
func EmitRuns(ctx context.Context, recs []Record, emit func(run []Record) error) error {
	for len(recs) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(len(recs), 1024)
		if err := emit(recs[:n]); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return ctx.Err()
}

// JSONLWriter streams records as JSON Lines.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter wraps w in a JSONL record writer.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record as a JSON line.
func (jw *JSONLWriter) Write(r Record) error {
	if err := jw.enc.Encode(r); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Flush flushes buffered output.
func (jw *JSONLWriter) Flush() error {
	if err := jw.bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Decode streams the records of a trace through emit, in stream order and in
// runs of at most 1024 records that are valid only during the call. The
// format is told from the first byte that is not white space: '{' starts a
// JSON Lines trace, anything else must be the CSV header row. Memory stays
// bounded by a few chunks of the input however long the trace is. A non-nil
// error from emit, a decode error (after the records before it have been
// emitted) or the context's error ends the stream; cancellation is noticed
// between reads of r.
func Decode(ctx context.Context, r io.Reader, emit func(run []Record) error) error {
	var head []byte
	var b [1]byte
	for len(head) == 0 || isSpace(b[0]) {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			if !errors.Is(err, io.EOF) {
				return fmt.Errorf("trace: read: %w", err)
			}
			if len(head) == 0 {
				return nil
			}
			break
		}
		head = append(head, b[0])
	}
	r = io.MultiReader(bytes.NewReader(head), r)
	if b[0] == '{' {
		return decode(ctx, "jsonl", r, emit)
	}
	return decode(ctx, "csv", r, emit)
}

// isSpace reports whether c is JSON white space.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// decodeStats is what a decode reports on its span.
type decodeStats struct {
	records, bytes int64
	chunks         int
}

// decode runs one format's decoder under the "trace.decode" span.
func decode(ctx context.Context, format string, r io.Reader, emit func([]Record) error) error {
	ctx, stage := obs.StartStage(ctx, "trace.decode", nil, obs.Str("format", format))
	var st decodeStats
	var err error
	if format == "jsonl" {
		st, err = decodeJSONL(ctx, r, emit)
	} else {
		st, err = decodeCSV(ctx, r, decodeChunkBytes, emit)
	}
	stage.End(err, obs.Int64("records", st.records), obs.Int64("bytes", st.bytes), obs.Int("chunks", st.chunks))
	return err
}

// collect decodes a whole trace of the given format into memory.
func collect(format string, r io.Reader) ([]Record, error) {
	var out []Record
	err := decode(context.Background(), format, r, func(run []Record) error {
		if cap(out)-len(out) < len(run) {
			// Double: append's 1.25x steps would copy a long trace four
			// times over on the way up.
			out = slices.Grow(out, max(len(out), len(run)))
		}
		out = append(out, run...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadCSV decodes all records from a CSV stream produced by CSVWriter.
func ReadCSV(r io.Reader) ([]Record, error) { return collect("csv", r) }

// decodeJSONL streams the records of a JSON Lines trace through emit, one
// reused run of 1024 at a time. A field Record does not have is an error, not
// a silently zero one.
func decodeJSONL(ctx context.Context, r io.Reader, emit func([]Record) error) (st decodeStats, err error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	run := make([]Record, 0, 1024)
	for {
		var rec Record
		derr := dec.Decode(&rec)
		if derr == nil {
			if run = append(run, rec); len(run) < cap(run) {
				continue
			}
		}
		// The run is full or the stream is over: hand on what there is.
		if len(run) > 0 {
			st.chunks++
		}
		st.records += int64(len(run))
		st.bytes = dec.InputOffset()
		if err := EmitRuns(ctx, run, emit); err != nil {
			return st, err
		}
		run = run[:0]
		if errors.Is(derr, io.EOF) {
			return st, nil
		}
		if derr != nil {
			return st, fmt.Errorf("trace: decode line %d: %w", st.records+1, derr)
		}
	}
}
