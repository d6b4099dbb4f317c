package trace

// The CSV codec. It writes and accepts exactly what encoding/csv does with
// its default settings (the tests keep encoding/csv as the oracle), but works
// on whole chunks of bytes and records: no []string per row, no string per
// field, and the chunks of one stream are encoded or parsed in parallel
// through the ordered fan-out.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Header is the CSV column order used by CSVWriter/ReadCSV.
var Header = []string{
	"tick", "dc", "pool", "server", "generation", "online",
	"rps", "cpu_pct", "latency_ms",
	"net_bytes", "net_pkts", "mem_pages", "disk_queue", "disk_read", "errors",
}

const (
	numFields = 15 // len(Header)
	// Chunk sizes of the two directions, about 100 KB of CSV either way:
	// many times what a hand-over between goroutines costs, and small enough
	// that all the buffers of a stream on two CPUs come to about 1 MB.
	// Measured on a pool-day, 4 096 records and 1 MB were no faster.
	// Decoding takes its size as a parameter so that tests can cut a small
	// input into many chunks.
	encodeChunkRecords = 512
	decodeChunkBytes   = 128 << 10
)

var headerLine = strings.Join(Header, ",") + "\n"

// floats lists r's float columns in Header order.
func (r *Record) floats() [9]*float64 {
	return [9]*float64{
		&r.RPS, &r.CPUPct, &r.LatencyMs,
		&r.NetBytes, &r.NetPkts, &r.MemPages, &r.DiskQueue, &r.DiskRead, &r.Errors,
	}
}

// encode renders c.recs (and the header row, for the stream's first chunk)
// into c.buf.
func (c *chunk) encode() {
	b := c.buf[:0]
	if c.header {
		b = append(b, headerLine...)
	}
	// Per string column, the previous record's name and whether it needs
	// quotes: all but the server repeat row after row.
	var last [4]string
	var quote [4]bool
	for i := range c.recs {
		r := &c.recs[i]
		b = strconv.AppendInt(b, int64(r.Tick), 10)
		for col, s := range [...]string{r.DC, r.Pool, r.Server, r.Generation} {
			if s != last[col] {
				last[col], quote[col] = s, needsQuotes(s)
			}
			b = appendField(append(b, ','), s, quote[col])
		}
		b = strconv.AppendBool(append(b, ','), r.Online)
		for _, v := range r.floats() {
			var ok bool // appendFloat writes strconv's bytes or declines
			if b, ok = appendFloat(append(b, ','), *v); !ok {
				b = strconv.AppendFloat(b, *v, 'g', -1, 64)
			}
		}
		b = append(b, '\n')
	}
	c.buf = b
}

// appendField appends a string field, in quotes if quote says so.
func appendField(b []byte, s string, quote bool) []byte {
	if !quote {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}

// needsQuotes reports whether encoding/csv would quote s: a delimiter, quote
// or line break anywhere, leading space, or `\.`.
func needsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	first, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(first)
}

// CSVWriter streams records as CSV with a header row. Records are collected
// into chunks that are rendered in parallel and written in order by a
// goroutine of the writer's own; Flush waits for everything written so far
// and releases the goroutines, so call it when done, after an error too.
type CSVWriter struct {
	w       io.Writer
	o       *ordered   // nil while nothing is buffered: Flush tears it down
	cur     *chunk     // the chunk being filled
	started bool       // the header row is in a chunk already
	written chan error // the writing goroutine's result
	err     error      // the first write error; sticky

	// Totals of what reached w; valid after Flush.
	Bytes  int64
	Chunks int
}

// NewCSVWriter wraps w in a CSV record writer.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: w}
}

// Write appends one record, emitting the header first if needed.
func (cw *CSVWriter) Write(r Record) error {
	return cw.WriteRun([]Record{r})
}

// WriteRun appends a run of records, emitting the header first if needed.
// The run is copied; the caller may reuse it.
func (cw *CSVWriter) WriteRun(run []Record) error {
	for len(run) > 0 {
		if cw.err != nil {
			return cw.err
		}
		if cw.cur == nil && !cw.acquire() {
			return cw.err
		}
		c := cw.cur
		n := min(len(run), encodeChunkRecords-len(c.recs))
		c.recs = append(c.recs, run[:n]...)
		run = run[n:]
		if len(c.recs) == encodeChunkRecords {
			cw.o.submit(cw.cur)
			cw.cur = nil
		}
	}
	return nil
}

// acquire makes cw.cur an empty chunk, starting the fan-out and the
// goroutine that writes to w if they are not running. It reports false, with
// cw.err set, when a write has failed.
func (cw *CSVWriter) acquire() bool {
	if cw.o == nil {
		cw.o = startOrdered(func() func(*chunk) { return (*chunk).encode })
		cw.written = make(chan error, 1)
		go func(o *ordered, written chan<- error) { written <- o.receive(cw.writeChunk) }(cw.o, cw.written)
	}
	if cw.cur = cw.o.acquire(); cw.cur == nil {
		cw.stop()
		return false
	}
	if cw.cur.recs == nil {
		// Sized once, for the whole stream: this trace's rows are about
		// 190 bytes.
		cw.cur.recs = make([]Record, 0, encodeChunkRecords)
		cw.cur.buf = make([]byte, 0, 200*encodeChunkRecords)
	}
	cw.cur.recs = cw.cur.recs[:0]
	cw.cur.header = !cw.started
	cw.started = true
	return true
}

// writeChunk runs on the writing goroutine, for each chunk in order.
func (cw *CSVWriter) writeChunk(c *chunk) error {
	n, err := cw.w.Write(c.buf)
	if err == nil && n < len(c.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	cw.Bytes += int64(n)
	cw.Chunks++
	return nil
}

// stop closes the fan-out and waits for its goroutines; cw.err is then the
// first write error, if any.
func (cw *CSVWriter) stop() {
	cw.o.close()
	cw.err = <-cw.written
	cw.o, cw.cur = nil, nil
}

// Flush writes everything buffered, waits for it to reach the underlying
// writer and reports the first write error, if any write failed.
func (cw *CSVWriter) Flush() error {
	if cw.o != nil {
		if cw.cur != nil {
			cw.o.submit(cw.cur)
		}
		cw.stop()
	}
	if cw.err != nil {
		return fmt.Errorf("trace: flush: %w", cw.err)
	}
	return nil
}

// decodeCSV streams the records of a CSV trace through emit in runs of at
// most 1024: a goroutine cuts r into chunks of about size bytes that end at a
// row boundary, the fan-out parses them in parallel, and the caller's
// goroutine emits them in order. Rows are numbered as a spreadsheet would
// (the header is row 1), whichever chunk they fall in. Cancellation is
// noticed between chunks, and decodeCSV returns only when its goroutines have.
func decodeCSV(ctx context.Context, r io.Reader, size int, emit func([]Record) error) (st decodeStats, err error) {
	o := startOrdered(newCSVParser)
	var readErr error
	go func() {
		defer o.close()
		readErr = cutChunks(ctx, r, size, o)
	}()
	pending := true // no row seen yet: the next one is the header
	err = o.receive(func(c *chunk) error {
		if pending && !c.header {
			// Every chunk before this one was blank lines, so the header
			// row is here and a worker has just read it as data.
			c.header = true
			newCSVParser()(c)
		}
		pending = c.pending
		st.chunks++
		st.bytes += int64(len(c.buf))
		row := st.records + 2
		st.records += int64(len(c.recs))
		if err := EmitRuns(ctx, c.recs, emit); err != nil {
			return err
		}
		if c.rowErr {
			return fmt.Errorf("trace: row %d: %w", row+int64(len(c.recs)), c.err)
		}
		return c.err
	})
	if err == nil {
		err = readErr
	}
	return st, err
}

// cutChunks reads r to its end, submitting it to o as chunks of at least size
// bytes, each ending just after a line break that is outside quotes — which,
// in a stream that parses, is a row boundary — and the last one at the end of
// the stream. It stops early when the receiver has.
func cutChunks(ctx context.Context, r io.Reader, size int, o *ordered) error {
	var carry []byte // what followed the previous chunk's cut
	for first, eof := true, false; !eof; first = false {
		c := o.acquire()
		if c == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		b := append(c.buf[:0], carry...)
		cut, scanned, quoted := 0, 0, false
		for !eof && (cut == 0 || len(b) < size) {
			// A chunk with no place to cut yet (one row longer than
			// size) doubles until it has one.
			want := max(size, 2*len(b))
			if cap(b) < want {
				b = append(make([]byte, 0, want), b...)
			}
			n, err := io.ReadFull(r, b[len(b):want])
			b = b[:len(b)+n]
			if eof = err == io.EOF || err == io.ErrUnexpectedEOF; !eof && err != nil {
				return fmt.Errorf("trace: read: %w", err)
			}
			cut, quoted = lastBreak(b, scanned, quoted, cut)
			scanned = len(b)
		}
		if eof {
			cut = len(b)
		}
		carry = append(carry[:0], b[cut:]...)
		c.buf, c.header = b[:cut], first
		if cut > 0 {
			o.submit(c)
		}
	}
	return nil
}

// lastBreak scans b[from:], where quoted tells whether b[from] is inside a
// quoted field, and returns the offset just past the last line break outside
// quotes (cut, if there is none) and the quote state at the end of b. The
// state is the parity of the quotes seen: in a stream that parses, quotes
// only open a field, close it, or come in escaping pairs.
func lastBreak(b []byte, from int, quoted bool, cut int) (int, bool) {
	for from < len(b) {
		seg := b[from:]
		q := bytes.IndexByte(seg, '"')
		if q >= 0 {
			seg = seg[:q]
		}
		if !quoted {
			if nl := bytes.LastIndexByte(seg, '\n'); nl >= 0 {
				cut = from + nl + 1
			}
		}
		if q < 0 {
			break
		}
		quoted = !quoted
		from += q + 1
	}
	return cut, quoted
}

var (
	errBareQuote  = errors.New(`bare " in non-quoted field`)
	errQuote      = errors.New(`extraneous or missing " in quoted field`)
	errFieldCount = errors.New("wrong number of fields")
)

// csvParser is one worker's scratch state.
type csvParser struct {
	split fieldSplitter
	names interner
}

func newCSVParser() func(*chunk) { return new(csvParser).decode }

// decode parses c.buf, a whole number of rows, into c.recs. It stops at the
// first row that fails, leaving the rows before it in c.recs.
func (p *csvParser) decode(c *chunk) {
	c.recs, c.err, c.rowErr, c.pending = c.recs[:0], nil, false, false
	if rows := bytes.Count(c.buf, []byte{'\n'}) + 1; cap(c.recs) < rows {
		c.recs = make([]Record, 0, rows+rows/8)
	}
	wantHeader := c.header
	for b := c.buf; len(b) > 0; {
		fields, rest, err := p.split.next(b)
		b = rest
		if fields == nil && err == nil {
			continue // a blank line
		}
		if err == nil && len(fields) != numFields {
			err = errFieldCount
		}
		if wantHeader {
			wantHeader = false
			if err != nil {
				c.err = fmt.Errorf("trace: read header: %w", err)
				return
			}
			if string(fields[0]) != Header[0] {
				c.err = fmt.Errorf("trace: missing header row (got %q)", fields)
				return
			}
			for i, want := range Header {
				if string(fields[i]) != want {
					c.err = fmt.Errorf("trace: read header: column %d is %q, want %q", i+1, fields[i], want)
					return
				}
			}
			continue
		}
		if err == nil {
			c.recs = append(c.recs, Record{})
			if err = p.names.parse(&c.recs[len(c.recs)-1], fields); err != nil {
				c.recs = c.recs[:len(c.recs)-1]
			}
		}
		if err != nil {
			c.err, c.rowErr = err, true
			return
		}
	}
	c.pending = wantHeader
}

// fieldSplitter splits rows into fields by encoding/csv's rules: RFC 4180
// quoting, "\r\n" read as "\n", one "\r" dropped at the end of the input,
// blank lines skipped, a quote inside an unquoted field refused.
type fieldSplitter struct {
	fields [][]byte
	// A row with a quote in it is unescaped into buf; ends are its fields'
	// end offsets there.
	buf  []byte
	ends []int
}

// next splits the first row of b and returns its fields — valid until the
// following call — and what follows the row. A blank line yields nil fields.
func (fs *fieldSplitter) next(b []byte) (fields [][]byte, rest []byte, err error) {
	line, rest, _ := nextLine(b)
	if len(line) == 0 {
		return nil, rest, nil
	}
	if bytes.IndexByte(line, '"') >= 0 {
		return fs.quoted(b)
	}
	fields = fs.fields[:0]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			break
		}
		fields = append(fields, line[:i])
		line = line[i+1:]
	}
	fs.fields = append(fields, line)
	return fs.fields, rest, nil
}

// nextLine returns the first line of b without its "\n" or "\r\n" (or the
// lone "\r" that ends the input), what follows it, and whether a line break
// ended it.
func nextLine(b []byte) (line, rest []byte, broken bool) {
	line = b
	if nl := bytes.IndexByte(b, '\n'); nl >= 0 {
		line, rest, broken = b[:nl], b[nl+1:], true
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest, broken
}

// quoted is next for a row whose first line holds a quote: fields may be
// quoted, hold escaped quotes and run over several lines.
func (fs *fieldSplitter) quoted(b []byte) (fields [][]byte, rest []byte, err error) {
	fs.buf, fs.ends = fs.buf[:0], fs.ends[:0]
	line, rest, broken := nextLine(b)
row:
	for {
		if len(line) == 0 || line[0] != '"' {
			field := line
			comma := bytes.IndexByte(line, ',')
			if comma >= 0 {
				field = line[:comma]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return nil, nil, errBareQuote
			}
			fs.buf = append(fs.buf, field...)
			fs.ends = append(fs.ends, len(fs.buf))
			if comma < 0 {
				break row
			}
			line = line[comma+1:]
			continue
		}
		line = line[1:]
		for {
			q := bytes.IndexByte(line, '"')
			if q < 0 {
				// The field runs on into the next line.
				fs.buf = append(fs.buf, line...)
				if !broken || len(rest) == 0 {
					return nil, nil, errQuote
				}
				fs.buf = append(fs.buf, '\n')
				line, rest, broken = nextLine(rest)
				continue
			}
			fs.buf = append(fs.buf, line[:q]...)
			line = line[q+1:]
			switch {
			case len(line) == 0:
				fs.ends = append(fs.ends, len(fs.buf))
				break row
			case line[0] == '"':
				fs.buf = append(fs.buf, '"')
				line = line[1:]
			case line[0] == ',':
				fs.ends = append(fs.ends, len(fs.buf))
				line = line[1:]
				continue row
			default:
				return nil, nil, errQuote
			}
		}
	}
	fields, start := fs.fields[:0], 0
	for _, end := range fs.ends {
		fields = append(fields, fs.buf[start:end])
		start = end
	}
	fs.fields = fields
	return fields, rest, nil
}

// interner hands out one string per distinct name instead of one per row:
// a trace repeats a few hundred server names and a handful of datacenter,
// pool and generation names for its whole length.
type interner struct {
	last  [4]string // per column; all but the server repeat row after row
	names map[string]string
}

// maxInterned bounds the table against a trace of all-distinct names.
const maxInterned = 1 << 16

func (in *interner) get(col int, b []byte) string {
	if string(b) == in.last[col] {
		return in.last[col]
	}
	s, ok := in.names[string(b)]
	if !ok {
		if in.names == nil || len(in.names) >= maxInterned {
			in.names = make(map[string]string)
		}
		s = string(b)
		in.names[s] = s
	}
	in.last[col] = s
	return s
}

// parse decodes one row's fields, in Header order, into r. strconv does the
// numbers — parseFloat only the floats it can prove strconv's answer to — so
// what is accepted is what strconv accepts; string(b) of a field that short
// does not allocate.
func (in *interner) parse(r *Record, fields [][]byte) error {
	var err error
	if r.Tick, err = strconv.Atoi(string(fields[0])); err != nil {
		return fmt.Errorf("bad tick %q: %w", fields[0], err)
	}
	r.DC, r.Pool = in.get(0, fields[1]), in.get(1, fields[2])
	r.Server, r.Generation = in.get(2, fields[3]), in.get(3, fields[4])
	if r.Online, err = strconv.ParseBool(string(fields[5])); err != nil {
		return fmt.Errorf("bad online %q: %w", fields[5], err)
	}
	for i, dst := range r.floats() {
		var ok bool
		if *dst, ok = parseFloat(fields[6+i]); ok {
			continue
		}
		if *dst, err = strconv.ParseFloat(string(fields[6+i]), 64); err != nil {
			return fmt.Errorf("bad %s %q: %w", Header[6+i], fields[6+i], err)
		}
	}
	return nil
}
