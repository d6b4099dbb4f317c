package trace

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"headroom/internal/leakcheck"
)

// The oracle: the encoding/csv codec this package used before it had its own,
// kept to the letter. The hand-written codec must write the bytes oracleWrite
// writes and accept, reject and decode what oracleRead does.

func oracleFields(r Record) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		strconv.Itoa(r.Tick), r.DC, r.Pool, r.Server, r.Generation,
		strconv.FormatBool(r.Online),
		f(r.RPS), f(r.CPUPct), f(r.LatencyMs),
		f(r.NetBytes), f(r.NetPkts), f(r.MemPages), f(r.DiskQueue), f(r.DiskRead), f(r.Errors),
	}
}

func oracleWrite(t testing.TB, recs []Record) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	for i, r := range recs {
		if i == 0 {
			if err := w.Write(Header); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Write(oracleFields(r)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func oracleParse(fields []string) (Record, error) {
	var r Record
	var err error
	if r.Tick, err = strconv.Atoi(fields[0]); err != nil {
		return Record{}, err
	}
	r.DC, r.Pool, r.Server, r.Generation = fields[1], fields[2], fields[3], fields[4]
	if r.Online, err = strconv.ParseBool(fields[5]); err != nil {
		return Record{}, err
	}
	for i, dst := range r.floats() {
		if *dst, err = strconv.ParseFloat(fields[6+i], 64); err != nil {
			return Record{}, err
		}
	}
	return r, nil
}

// oracleRead returns the records before the first bad row and that row's
// number (the header is row 1), or row 0 when the header itself is bad.
func oracleRead(data []byte) (recs []Record, badRow int, err error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = len(Header)
	first, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if !slices.Equal(first, Header) {
		return nil, 0, errors.New("not the header row")
	}
	for {
		fields, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return recs, 0, nil
		}
		if err != nil {
			return recs, len(recs) + 2, err
		}
		rec, err := oracleParse(fields)
		if err != nil {
			return recs, len(recs) + 2, err
		}
		recs = append(recs, rec)
	}
}

// sameRecords is == with NaN equal to itself: float columns compare by bits.
func sameRecords(a, b []Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records, want %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		for j, p := range x.floats() {
			q := y.floats()[j]
			if math.Float64bits(*p) != math.Float64bits(*q) {
				return fmt.Errorf("record %d: %s = %v, want %v", i, Header[6+j], *p, *q)
			}
			*p, *q = 0, 0
		}
		if x != y {
			return fmt.Errorf("record %d = %+v, want %+v", i, a[i], b[i])
		}
	}
	return nil
}

// checkAgainstOracle decodes data in chunks of size bytes and compares
// everything observable with the oracle: the records emitted, whether the
// decode failed, and which row it blamed.
func checkAgainstOracle(t testing.TB, data []byte, size int) {
	t.Helper()
	want, badRow, wantErr := oracleRead(data)
	var got []Record
	_, err := decodeCSV(context.Background(), bytes.NewReader(data), size, func(run []Record) error {
		got = append(got, run...)
		return nil
	})
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("chunks of %d: err = %v, the oracle's = %v\ninput %q", size, err, wantErr, data)
	}
	if serr := sameRecords(got, want); serr != nil {
		t.Fatalf("chunks of %d: %v\ninput %q", size, serr, data)
	}
	if badRow > 0 && !strings.Contains(err.Error(), fmt.Sprintf("row %d:", badRow)) {
		t.Fatalf("chunks of %d: err = %v, the oracle blames row %d\ninput %q", size, err, badRow, data)
	}
}

var fuzzSeeds = func() []string {
	h := strings.Join(Header, ",") + "\n"
	row := "3,DC 1,B,b-0001,gen1,true,1.5,2,3,4,5,6,7,8,9\n"
	return []string{
		"", "\n", "\r", "\r\n\r\n", h, h[:len(h)-1], h + row, h + row[:len(row)-1],
		"\n\n\r\n" + h + "\n" + row + "\r\n\n" + row,                                       // blank lines everywhere
		strings.ReplaceAll(h+row+row, "\n", "\r\n"),                                        // \r\n
		h + row[:len(row)-1] + "\r",                                                        // one \r before the end
		h + "3,DC 1,B,b\r,gen1,true,1,2,3,4,5,6,7,8,9\r\r\n",                               // \r that is data
		h + `3,"DC, 1","B ""big""",b-1,gen1,true,1,2,3,4,5,6,7,8,9` + "\n",                 // quoted comma, "" escape
		h + "3,\"DC\n1\",\"\r\n\",\"a\n\nb\",\"\",true,1,2,3,4,5,6,7,8,9\n" + row,          // line breaks in quotes
		h + "3,\"" + strings.Repeat("x\n", 40) + "\",B,s,g,true,1,2,3,4,5,6,7,8,9\n" + row, // longer than a chunk
		h + `3,"DC 1",B,s,g,true,1,2,3,4,5,6,7,8,"9"`,                                      // quoted last field, no newline
		h + "3,DC 1,B,s,g,true,NaN,+Inf,-Inf,0x1p-2,1e400,-0,1_0,.5,5.\n",                  // what strconv takes
		h + "3,DC 1,B,s,g,T,nan,inf,Infinity,0X1P+3,1e-400,+1,1E5,0x1.8p1,0x_1p0\n",        // ... and more
		h + "+3,DC 1,B,s,g,1,1,2,3,4,5,6,7,8,9\n-0,DC 1,B,s,g,0,1,2,3,4,5,6,7,8,9\n",
		h + "3,DC 1,B\n", h + row + "3,DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9,10\n", // short, long
		h + "3,D\"C,B,s,g,true,1,2,3,4,5,6,7,8,9\n" + row,         // bare quote
		h + "3,\"DC\"1,B,s,g,true,1,2,3,4,5,6,7,8,9\n" + row,      // text after a closing quote
		h + row + "3,\"DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9\n" + row, // quote never closed
		h + row + "3,\"DC 1\"\r,B,s,g,true,1,2,3,4,5,6,7,8,9\n",
		h + "X,DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9\n", h + "1,DC 1,B,s,g,maybe,1,2,3,4,5,6,7,8,9\n",
		h + row + row + "1,DC 1,B,s,g,true,zz,2,3,4,5,6,7,8,9\n" + row,
		"not,a,header\n", "tick\n", "\"tick\",a,b,c,d,e,f,g,h,i,j,k,l,m,n\n" + row,
		"tick,\"a\nb\",c,d,e,f,g,h,i,j,k,l,m,n,o\n" + row, "{\"tick\":1}\n",
		strings.Repeat("\n", 100) + h + row, // the header row beyond the first chunks
		// Columns permuted (which would read as DC "B", pool "DC 1"), one
		// misspelt, a quoted name that is still right.
		"tick,pool,dc" + h[len("tick,dc,pool"):] + row, h[:len(h)-2] + "\n" + row,
		"tick,\"dc\"" + h[len("tick,dc"):] + row,
	}
}()

// TestCSVDecodeMatchesEncodingCSV runs the fuzz target's seeds at chunk sizes
// that put a cut everywhere a cut can go.
func TestCSVDecodeMatchesEncodingCSV(t *testing.T) {
	leakcheck.Check(t)
	for _, in := range fuzzSeeds {
		for _, size := range []int{1, 2, 7, 16, 64, 200, 1 << 20} {
			checkAgainstOracle(t, []byte(in), size)
		}
	}
}

// TestDecodeNamesTheWrongColumn: the header has to be Header, name for name.
func TestDecodeNamesTheWrongColumn(t *testing.T) {
	in := "tick,pool,dc" + headerLine[len("tick,dc,pool"):] + "3,B,DC 1,b-0001,gen1,true,1.5,2,3,4,5,6,7,8,9\n"
	_, err := ReadCSV(strings.NewReader(in))
	if want := `trace: read header: column 2 is "pool", want "dc"`; err == nil || err.Error() != want {
		t.Errorf("got %v, want %s", err, want)
	}
}

func FuzzCSVDecodeMatchesEncodingCSV(f *testing.F) {
	for i, in := range fuzzSeeds {
		f.Add([]byte(in), uint16(1+i*13))
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		checkAgainstOracle(t, data, 1+int(size)%4096)
		checkAgainstOracle(t, data, 1<<20)
	})
}

// nastyRecords are records whose names need every quoting rule.
func nastyRecords(n int, seed int64) []Record {
	names := []string{
		"DC 1", "b-0001", "", " lead", "\ttab", "\u00a0nbsp", "\u2003em", "\u0085nel", "trail ", "a,b", `say "hi"`, `"`, `""`,
		"line\nbreak", "cr\rlf\r\n", "\n", `\.`, `\.x`, "é", "\xff\xfe", ",", "x\"y,z\n",
	}
	rng := rand.New(rand.NewSource(seed))
	recs := sampleRecords(n, seed)
	for i := range recs {
		r := &recs[i]
		r.Tick = rng.Intn(1<<20) - 1000
		r.DC, r.Pool = names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		r.Server, r.Generation = names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		switch rng.Intn(6) {
		case 0:
			r.RPS, r.CPUPct, r.LatencyMs = math.NaN(), math.Inf(1), math.Inf(-1)
		case 1:
			r.NetBytes, r.NetPkts, r.MemPages = math.Copysign(0, -1), 1e21, 5e-324
		case 2:
			r.DiskQueue, r.DiskRead, r.Errors = 1e6, 123456, -1e-7
		}
	}
	return recs
}

// TestCSVWriterMatchesEncodingCSV: the writer's bytes are encoding/csv's,
// record by record and in runs, for less than one chunk and for several.
func TestCSVWriterMatchesEncodingCSV(t *testing.T) {
	leakcheck.Check(t)
	for _, n := range []int{0, 1, 50, encodeChunkRecords, 3*encodeChunkRecords + 17} {
		recs := nastyRecords(n, int64(n))
		want := oracleWrite(t, recs)

		var one, runs bytes.Buffer
		w := NewCSVWriter(&one)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bytes(), want) {
			t.Errorf("%d records, Write: bytes differ from encoding/csv's", n)
		}
		if w.Bytes != int64(len(want)) {
			t.Errorf("%d records: writer counted %d bytes, wrote %d", n, w.Bytes, len(want))
		}

		w = NewCSVWriter(&runs)
		for rest := recs; len(rest) > 0; {
			k := min(len(rest), 1+len(rest)%700)
			if err := w.WriteRun(rest[:k]); err != nil {
				t.Fatal(err)
			}
			rest = rest[k:]
			if len(rest) == n/2 { // a Flush in mid-stream writes no second header
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(runs.Bytes(), want) {
			t.Errorf("%d records, WriteRun: bytes differ from encoding/csv's", n)
		}
		// And what was written reads back, whatever the names hold.
		checkAgainstOracle(t, want, 1000)
		got, err := ReadCSV(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%d records: ReadCSV: %v", n, err)
		}
		for i := range recs { // the codecs read "\r\n" inside quotes as "\n"
			for _, s := range []*string{&recs[i].DC, &recs[i].Pool, &recs[i].Server, &recs[i].Generation} {
				*s = strings.ReplaceAll(*s, "\r\n", "\n")
			}
		}
		if err := sameRecords(got, recs); err != nil {
			t.Errorf("%d records: round trip: %v", n, err)
		}
	}
}

// failingWriter accepts budget bytes, then fails every write.
type failingWriter struct {
	budget int
	short  bool // fail by writing short with a nil error
	calls  int  // writes attempted after the first failure
	failed bool
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.calls++
		return 0, errDiskFull
	}
	if len(p) <= w.budget {
		w.budget -= len(p)
		return len(p), nil
	}
	w.failed = true
	if w.short {
		return w.budget, nil
	}
	return w.budget, errDiskFull
}

// TestCSVWriterReportsFirstWriteError: a failed or short write stops the
// writer; nothing is written after it, Write and Flush report that error, and
// no goroutine is left behind whether or not the caller goes on to Flush.
func TestCSVWriterReportsFirstWriteError(t *testing.T) {
	leakcheck.Check(t)
	recs := sampleRecords(20*encodeChunkRecords, 3)
	for _, short := range []bool{false, true} {
		fw := &failingWriter{budget: 300_000, short: short}
		w := NewCSVWriter(fw)
		var werr error
		for i := range recs {
			if werr = w.Write(recs[i]); werr != nil {
				break
			}
		}
		want := errDiskFull
		if short {
			want = io.ErrShortWrite
		}
		if !errors.Is(werr, want) {
			t.Errorf("short=%v: Write error %v, want %v", short, werr, want)
		}
		if err := w.Write(recs[0]); !errors.Is(err, want) {
			t.Errorf("short=%v: Write after the failure: %v, want %v", short, err, want)
		}
		if err := w.Flush(); !errors.Is(err, want) {
			t.Errorf("short=%v: Flush error %v, want %v", short, err, want)
		}
		if fw.calls != 0 {
			t.Errorf("short=%v: %d writes after the one that failed", short, fw.calls)
		}
	}
}

// TestDecodeReleasesGoroutines: an emit error, a bad row in mid-file, a read
// error and a cancelled context each end the stream with that error and with
// every goroutine of the fan-out gone (run under -race in CI).
func TestDecodeReleasesGoroutines(t *testing.T) {
	leakcheck.Check(t)
	data := oracleWrite(t, sampleRecords(20_000, 4))
	errStop := errors.New("stop")

	var n int
	err := Decode(context.Background(), bytes.NewReader(data), func(run []Record) error {
		if n += len(run); n > 5000 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Errorf("emit error: got %v", err)
	}

	bad := bytes.Replace(data, []byte("\n9000,"), []byte("\nx,"), 1)
	n = 0
	_, err = decodeCSV(context.Background(), bytes.NewReader(bad), 4096, func(run []Record) error {
		n += len(run)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "row 9002: bad tick") || n != 9000 {
		t.Errorf("bad row: %d records, then %v; want 9000, then row 9002's bad tick", n, err)
	}

	errRead := errors.New("connection reset")
	broken := io.MultiReader(bytes.NewReader(data[:len(data)/2]), iotestErrReader{errRead})
	if _, err = decodeCSV(context.Background(), broken, 4096, func([]Record) error { return nil }); !errors.Is(err, errRead) {
		t.Errorf("read error: got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	n = 0
	_, err = decodeCSV(ctx, bytes.NewReader(data), 4096, func(run []Record) error {
		if n += len(run); n > 5000 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || n > 7000 {
		t.Errorf("cancelled: %d records, then %v", n, err)
	}
	cancel()
	if err := Decode(ctx, bytes.NewReader(data), func([]Record) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled before the start: got %v", err)
	}
}

type iotestErrReader struct{ err error }

func (r iotestErrReader) Read([]byte) (int, error) { return 0, r.err }

// TestDecodeSniffsFormat: one rule for files and pipes — '{' is JSON Lines,
// anything else has to be the CSV header.
func TestDecodeSniffsFormat(t *testing.T) {
	recs := sampleRecords(3000, 5)
	var jsonl bytes.Buffer
	jw := NewJSONLWriter(&jsonl)
	for _, r := range recs {
		if err := jw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"csv": oracleWrite(t, recs), "jsonl": jsonl.Bytes(), "empty": nil} {
		var got []Record
		// One byte at a time: the sniffed byte must not be lost or doubled.
		err := Decode(context.Background(), iotestOneByteReader{bytes.NewReader(data)}, func(run []Record) error {
			if len(run) > 1024 {
				t.Errorf("%s: a run of %d records", name, len(run))
			}
			got = append(got, run...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := recs
		if name == "empty" {
			want = nil
		}
		if err := sameRecords(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := Decode(context.Background(), strings.NewReader("[1,2]\n"), func([]Record) error { return nil }); err == nil {
		t.Error("neither JSON Lines nor the CSV header: want an error")
	}
}

type iotestOneByteReader struct{ r io.Reader }

func (r iotestOneByteReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return r.r.Read(p[:1])
}

// BenchmarkTraceCSV encodes and decodes one pool-day-sized trace (396 000
// records of 539 servers) with one worker and with two. It sets GOMAXPROCS
// itself: under -cpu, the testing package measures a benchmark's first
// -benchtime 1x run before it applies the first value of the list.
func BenchmarkTraceCSV(b *testing.B) {
	recs := sampleRecords(396_000, 1)
	for i := range recs {
		recs[i].Server = fmt.Sprintf("b-%04d", i%539)
	}
	data := oracleWrite(b, recs)
	encode := func(b *testing.B) {
		w := NewCSVWriter(io.Discard)
		for run := recs; len(run) > 0; run = run[min(len(run), 539):] {
			if err := w.WriteRun(run[:min(len(run), 539)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	decode := func(b *testing.B) {
		var n int
		err := Decode(context.Background(), bytes.NewReader(data), func(run []Record) error {
			n += len(run)
			return nil
		})
		if err != nil || n != len(recs) {
			b.Fatal(n, err)
		}
	}
	for _, bm := range []struct {
		name  string
		procs int
		op    func(*testing.B)
	}{{"encode/procs=1", 1, encode}, {"encode/procs=2", 2, encode}, {"decode/procs=1", 1, decode}, {"decode/procs=2", 2, decode}} {
		b.Run(bm.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bm.procs))
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				bm.op(b)
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
		})
	}
}
