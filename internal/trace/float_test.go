package trace

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// The oracle of both kernels is strconv: whatever one decides must be, bit
// for bit or byte for byte, what strconv answers; declining is always allowed
// here (TestFloatKernelsDecideAPoolDay is what keeps them from declining).

// checkParse reports whether parseFloat decided s.
func checkParse(t testing.TB, s string) bool {
	t.Helper()
	got, ok := parseFloat([]byte(s))
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseFloat(%q) = %v (%#x), strconv's %v (%#x), %v",
			s, got, math.Float64bits(got), want, math.Float64bits(want), err)
	}
	return true
}

// checkAppend reports whether appendFloat decided v. It appends to a prefix
// with no room to spare and to one with plenty.
func checkAppend(t testing.TB, v float64) bool {
	t.Helper()
	want := strconv.AppendFloat([]byte("x,"), v, 'g', -1, 64)
	tight, ok := appendFloat([]byte("x,"), v)
	roomy, ok2 := appendFloat(append(make([]byte, 0, 64), "x,"...), v)
	if ok != ok2 {
		t.Fatalf("appendFloat(%v) decided with one capacity and declined with another", v)
	}
	if !ok {
		if string(tight) != "x," || string(roomy) != "x," {
			t.Fatalf("appendFloat(%v) declined, and left %q and %q", v, tight, roomy)
		}
		return false
	}
	if string(tight) != string(want) || string(roomy) != string(want) {
		t.Fatalf("appendFloat(%v, %#x) = %q and %q, strconv's %q", v, math.Float64bits(v), tight, roomy, want)
	}
	return true
}

var parseSeeds = []string{
	"0", "-0", "+0", "0.0", "0e5", "-0e-5", "000", "1", "+1", "-1", "1.", ".5", "-.5", "00012.5000", "1.5", "1E5", "1e+05", "1e-7", "1.5e-7",
	"373.7965054761731", "6.784758629707177e+06", "0.25018430897262306", "8.3120042187875e+06", "0.00012345678901234567",
	// Half way between two floats, in 16 to 19 digits, and just off it.
	"9007199254740993", "9007199254740992.5", "9007199254740993.5", "9007199254740995", "72057594037927944", "72057594037927945",
	"576460752303423552", "576460752303423551", "9223372036854776832", "9223372036854776833", "9223372036854775807",
	"1125899906842624.125", "1125899906842624.375", "1125899906842624.25", "4503599627370496.5", "4503599627370497.5", "0.1", "0.3", "2.5e-1",
	"18446744073709551615", "18446744073709551616", "1844674407370955161.5", "9999999999999999999", "99999999999999999999", "1e19", "1e20", "1e21", "12e18",
	"1e-19", "1e-20", "9999999999999999999e-19", "1.7976931348623157e308", "1.8e308", "2.2250738585072014e-308", "5e-324", "2e-324", "1e999", "1e1000", "1e-999",
	"1.0000000000000000000", "0.00000000000000000000000001", "00000000000000000000", "00000000000000000000.5", "123456789012345678901",
	// What strconv takes and the kernel leaves to it, and what nobody takes.
	"NaN", "nan", "+Inf", "-inf", "Infinity", "0x1p3", "0X1.8P1", "1_0", "0x_1p0", "1p3",
	"", "+", "-", ".", "+.", "e", "e5", ".e5", "1e", "1e+", "1e-", "1e+-5", "1.5.5", "1..5", "--1", "+-1", " 1", "1 ", "1,5", "1e5.5", "1f", "１",
}

// appendSeeds are float64s: these, and every parseSeed that parses.
var appendSeeds = []float64{
	0, math.Copysign(0, -1), 1, 2, 3, 0.5, 0.25, 0.75, 1024, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 62,
	100, 1000, 123456, 999999, 1e6, 1234567, 1e15, 1e16, 1e21, 1e22, 1e23, 1e-4, 0.00012345, 1e-5, 1e-6, 1.9073486328125e-06, 1.9e-6, 1e-7,
	0.1, 0.3, 1.0 / 3, 2.0 / 3, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.Inf(1), math.Inf(-1), math.NaN(),
	99999999999999.98, 9999999999999998, 9.999999999999999e22, 0.000001, 0.0001, 0.001,
	// Exactly between the two nearest 17-digit decimals, and between two of
	// 16 digits that both read back: strconv rounds to even.
	1125899906842624.25, 1125899906842624.75, 1125899906842625.25, 562949953421312.75, 562949953421312.25, -1125899906842624.25,
}

func FuzzParseFloatMatchesStrconv(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkParse(t, s) })
}

func FuzzAppendFloatMatchesStrconv(f *testing.F) {
	for _, v := range appendSeeds {
		f.Add(math.Float64bits(v))
	}
	for _, s := range parseSeeds {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			f.Add(math.Float64bits(v))
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if checkAppend(t, v) {
			// What one kernel writes the other reads, so a trace comes
			// back through the fast path.
			if s := strconv.FormatFloat(v, 'g', -1, 64); !checkParse(t, s) {
				t.Errorf("appendFloat decided %v and parseFloat declined %q", v, s)
			}
		}
	})
}

// TestFloatKernelsMatchStrconv sweeps values of every shape the kernels
// branch on — all exponents, integers, powers of two and their multiples,
// short decimals, quarters above 2^49 (the ties) — and their spellings in
// every layout strconv writes.
func TestFloatKernelsMatchStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 400_000
	if testing.Short() {
		n /= 10
	}
	var parsed, parses, formatted int
	for i := range n {
		var v float64
		switch i % 8 {
		case 0:
			v = math.Float64frombits(rng.Uint64())
		case 1:
			v = rng.Float64() * 100
		case 2:
			v = rng.Float64() * 2e7
		case 3:
			v = float64(rng.Intn(1 << 20))
		case 4:
			v = math.Ldexp(float64(1+rng.Intn(3)), rng.Intn(80)-25)
		case 5: // every exponent the format kernel takes, and three either side
			v = math.Float64frombits(uint64(1023-22+rng.Intn(78))<<52 | rng.Uint64()&(1<<52-1))
		case 6:
			v = float64(rng.Int63n(1<<53)) / float64(pow10[rng.Intn(20)])
		case 7:
			v = float64(rng.Int63n(1<<54)) / 8
		}
		if i%3 == 0 {
			v = -v
		}
		if checkAppend(t, v) {
			formatted++
		}
		for _, s := range []string{
			strconv.FormatFloat(v, 'g', -1, 64), strconv.FormatFloat(v, 'e', -1, 64), strconv.FormatFloat(v, 'f', -1, 64),
			strconv.FormatFloat(v, 'e', rng.Intn(19), 64), strconv.FormatFloat(v, 'f', rng.Intn(8), 64),
		} {
			parses++
			if checkParse(t, s) {
				parsed++
			}
		}
	}
	t.Logf("the kernels decided %d of %d formats and %d of %d parses", formatted, n, parsed, parses)
}

// checkFractionRun compares fractionRun with the byte loop it stands in for at
// every offset of b, from a nonzero m so that the scaling shows.
func checkFractionRun(t testing.TB, b []byte) {
	t.Helper()
	for i := 0; i <= len(b); i++ {
		m, n := fractionRun(b, i, 7)
		wm, wn := digitRun(b, i, 7)
		if m != wm || n != wn {
			t.Fatalf("fractionRun(%q, %d) = %d, %d; the byte loop's %d, %d", b, i, m, n, wm, wn)
		}
	}
}

// TestFractionRunMatchesByteLoop: the word-at-a-time scan reads the digits
// the byte loop reads, for every byte value at every place of the two words
// it looks at — '/' and ':' either side of the digits, and 0xfa to 0xff,
// which carry in its arithmetic, among them — and for every run length.
func TestFractionRunMatchesByteLoop(t *testing.T) {
	digits := []byte("1234567890123456789012")
	for p := range 18 {
		for c := range 256 {
			b := slices.Clone(digits)
			b[p] = byte(c)
			checkFractionRun(t, b)
		}
	}
}

// TestPut8 writes every one of the 10^8 inputs.
func TestPut8(t *testing.T) {
	if testing.Short() {
		t.Skip("10^8 inputs")
	}
	var got [8]byte
	want := []byte("00000000")
	for v := range uint32(1e8) {
		if put8(got[:], v); string(got[:]) != string(want) {
			t.Fatalf("put8(%d) = %q", v, got)
		}
		for i := 7; i >= 0; i-- { // want becomes v+1
			if want[i]++; want[i] <= '9' {
				break
			}
			want[i] = '0'
		}
	}
}
