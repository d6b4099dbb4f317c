package trace

import (
	"context"
	"io"
)

// For the test that needs internal/sim, which imports this package.
var (
	ParseFloatKernel  = parseFloat
	AppendFloatKernel = appendFloat
)

func (r *Record) Floats() [9]*float64 { return r.floats() }

// DecodeCSVPlain decodes a CSV trace as Decode does and also returns how many
// of its rows the one-pass row path decoded.
func DecodeCSVPlain(r io.Reader, emit func([]Record) error) (plain int64, err error) {
	st, err := decodeCSV(context.Background(), r, decodeChunkBytes, emit)
	return st.plain, err
}

// SameRecord is == with the float columns compared by their bits.
func SameRecord(a, b Record) bool { return sameRecords([]Record{a}, []Record{b}) == nil }

// FractionRun and DigitRun are the word-at-a-time digit scan and the byte
// loop it stands in for.
var (
	FractionRun = fractionRun
	DigitRun    = digitRun
)
