package trace

// Exact float64 <-> text kernels under the CSV codec. Each answers only what
// it can prove with integer arithmetic of at most 128 bits — the result is
// then, bit for bit and byte for byte, what strconv.ParseFloat(s, 64) and
// strconv.AppendFloat(dst, v, 'g', -1, 64) give — and reports false for
// everything else, so that the caller asks strconv. The tests keep strconv as
// the oracle for both.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

var pow10 = [20]uint64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow5 holds 5^k for k <= 27, the last that fits in 64 bits.
var pow5 = func() (t [28]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = 5 * t[k-1]
	}
	return t
}()

// parseFloat decides [+-]digits[.digits][e[+-]ddd] with at most 19
// significant digits, m·10^e10, where m is zero, or e10 is in [-27, 27] and
// m·5^e10 is below 2^64. It declines every other string, bad syntax included.
func parseFloat(b []byte) (float64, bool) {
	v, n, ok := parseFloatPrefix(b)
	return v, ok && n == len(b)
}

// parseFloatPrefix is parseFloat for the float b starts with: it also
// returns how many bytes of b that float is, and what follows it is the
// caller's to check.
func parseFloatPrefix(b []byte) (float64, int, bool) {
	var sign uint64
	i, n := 0, len(b)
	if n > 0 && (b[0] == '-' || b[0] == '+') {
		if i = 1; b[0] == '-' {
			sign = 1 << 63
		}
	}
	// m wraps when there are more than 19 digits; that is refused below
	// unless the excess is leading zeros, which leave m zero.
	first := i
	m, i := digitRun(b, i, 0)
	nd, e10 := i-first, 0
	if i < n && b[i] == '.' {
		point := i + 1
		m, i = fractionRun(b, point, m)
		e10 = point - i
		nd -= e10
	}
	if nd == 0 {
		return 0, 0, false
	}
	if nd > 19 {
		for _, c := range b[first:i] {
			if c == '0' {
				nd--
			} else if c != '.' {
				break
			}
		}
		if nd > 19 {
			return 0, 0, false
		}
	}
	if i < n && b[i]|0x20 == 'e' {
		i++
		neg := false
		if i < n && (b[i] == '-' || b[i] == '+') {
			neg = b[i] == '-'
			i++
		}
		e, from := 0, i
		for ; i < n && b[i]-'0' <= 9; i++ {
			e = e*10 + int(b[i]-'0')
		}
		if i == from || i-from > 3 {
			return 0, 0, false
		}
		if neg {
			e = -e
		}
		e10 += e
	}

	if m == 0 {
		return math.Float64frombits(sign), i, true
	}
	if e10 < -27 || e10 > 27 {
		return 0, 0, false
	}
	// The value is q·2^(e2-63)·(1+ε): q holds its leading 64 bits, top bit
	// set, and sticky is 1 if ε > 0. The 2^e10 of 10^e10 goes to e2.
	var q, sticky uint64
	e2 := e10
	if e10 >= 0 {
		hi, lo := bits.Mul64(m, pow5[e10])
		if hi != 0 {
			return 0, 0, false
		}
		lz := bits.LeadingZeros64(lo)
		q, e2 = lo<<lz, e2+63-lz
	} else {
		// With both normalised to 64 bits their ratio is in (1/2, 2), so
		// exactly one of mn/dn and 2·mn/dn has a quotient of 64 bits: the
		// first when mn >= dn. Which one it is is a coin flip of the data,
		// so it is picked by arithmetic.
		d := pow5[-e10]
		lz, lzd := bits.LeadingZeros64(m), bits.LeadingZeros64(d)
		mn, dn := m<<lz, d<<lzd
		lt := (mn - dn) >> 63 // both have the top bit set
		var r uint64
		q, r = bits.Div64(mn>>(1-lt), mn<<63&(lt-1), dn)
		e2 += lzd - lz - int(lt)
		sticky = (r | -r) >> 63
	}
	// Round half-even to 53 bits: up when what is dropped, rest and sticky,
	// is more than half, or exactly half and mant is odd. A carry out of
	// mant moves into the exponent by itself. The values accepted lie in
	// [1e-27, 2^91): the result is normal.
	mant, rest := q>>11, q&(1<<11-1)
	mant += (1<<11 - (rest<<1 | sticky) - mant&1) >> 63
	return math.Float64frombits(sign | uint64(e2+1022)<<52 + mant), i, true
}

// digitRun reads the decimal digits b[i:] starts with onto the end of m,
// returning m·10^k + their value, wrapped to 64 bits, and i+k, k being how
// many there were.
func digitRun(b []byte, i int, m uint64) (uint64, int) {
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	return m, i
}

// fractionRun is digitRun for the digits after a point. In a trace there are
// most often 13 to 16 of them, and how many is a coin flip: while 16 bytes
// are left in b it takes 8 digits as one word and then the next word's
// digits, however many there are, by arithmetic instead of a loop's exit.
func fractionRun(b []byte, i int, m uint64) (uint64, int) {
	if len(b)-i >= 16 {
		if x := binary.LittleEndian.Uint64(b[i:]); eightDigitsIn(x) {
			m, i = m*1e8+digitsValue(x, 8), i+8
			x = binary.LittleEndian.Uint64(b[i:])
			k := leadingDigits(x)
			if m, i = m*pow10[k]+digitsValue(x, k), i+k; k < 8 {
				return m, i
			}
		}
	}
	return digitRun(b, i, m)
}

// eightDigitsIn reports whether all 8 bytes of x are digits. A byte of
// 0xfa and up carries into the next one in x+0x06…, but is not a digit
// either.
func eightDigitsIn(x uint64) bool {
	return x&0xf0f0f0f0f0f0f0f0|(x+0x0606060606060606)&0xf0f0f0f0f0f0f0f0>>4 == 0x3333333333333333
}

// leadingDigits is how many of x's bytes, from the lowest, are digits before
// the first that is not. Per byte, +0x50 sets the top bit from '0' up and
// +0x46 from ':' up. Only a byte whose top bit is set already, which is not
// a digit, carries, and only into the bytes after it, which do not count.
func leadingDigits(x uint64) int {
	other := ^((x + 0x5050505050505050) &^ (x + 0x4646464646464646) &^ x) & 0x8080808080808080
	return bits.TrailingZeros64(other) >> 3
}

// digitsValue is the value of the k <= 8 digits in x's lowest bytes, the
// first lowest (Lemire, "Fast floating-point number parsing", 2021): they
// move to the top, leaving zeros below them, and each step adds neighbouring
// lanes, ten times the first, into lanes twice as wide. What the subtraction
// borrows from the bytes after the digits is shifted out.
func digitsValue(x uint64, k int) uint64 {
	x = (x - 0x3030303030303030) << (64 - 8*k)
	x = x * (1 + 10<<8) >> 8
	x = (x & 0x00ff00ff00ff00ff) * (1 + 100<<16) >> 16
	return (x & 0x0000ffff0000ffff) * (1 + 10000<<32) >> 32
}

// appendFloat decides +0 and the normal values of magnitude in [2^-19, 2^53)
// — but for the rare one that lies exactly half way between the two nearest
// shortest decimals, which strconv rounds to even.
func appendFloat(dst []byte, v float64) ([]byte, bool) {
	b := math.Float64bits(v)
	if b == 0 {
		return append(dst, '0'), true
	}
	e2 := int(b>>52&(1<<11-1)) - 1023
	if e2 < -19 || e2 > 52 {
		return dst, false
	}
	// |v| = m/2^s, and every decimal strictly between (m-½)/2^s and
	// (m+½)/2^s reads back as v; the ends do too when m is even. Below a
	// power of two floats are twice as dense and the lower end is at m-¼:
	// in units of half the spacing on that side, v is m2 and the ends are
	// m2-1 and m2+up.
	m, s := b&(1<<52-1)|1<<52, uint(52-e2)
	m2, up := 2*m, uint64(1)
	if m == 1<<52 {
		m2, up, s = 4*m, 2, s+1
	}
	// Scale by 10^k so that w = |v|·10^k is in [1e16, 1e17): 17 digits always
	// hold a decimal that reads back. k is in [1, 22]: 10^k is pa·pb with
	// pa <= 1000, (m2+up)·pa < 2^64 and the three products are below 2^128.
	k := 16 - (e2*78913)>>18 // 16 - floor(e2·log10(2)): right, or one too many
	var pa, pb, c2, cnz uint64
	for ; ; k-- {
		pa, pb = pow10[max(k-19, 0)], pow10[min(k, 19)]
		hi, lo := bits.Mul64(m2*pa, pb)
		if c2, cnz = shr128(hi, lo, s); c2 < 2e17 {
			break
		}
	}
	// c2, l2 and u2 are the floors of twice w and of twice the two ends, and
	// cnz, lnz and unz are 1 where the floor dropped something. The integers
	// that read back as v are [l, u]: l rounds up, and an end that is an
	// integer is left out when m is odd. (Arithmetic, not branches: these
	// bits are coin flips.)
	hi, lo := bits.Mul64((m2-1)*pa, pb)
	l2, lnz := shr128(hi, lo, s)
	hi, lo = bits.Mul64((m2+up)*pa, pb)
	u2, unz := shr128(hi, lo, s)
	l := l2>>1 + (l2|lnz|m)&1
	u := u2>>1 - ^(u2|unz)&m&1
	// Drop digits while a multiple of the next power of ten is in [l, u]:
	// then a·p <= w < (a+1)·p, and the shortest decimals are the multiples of
	// p that l and u, divided likewise, admit.
	a, p, j := c2>>1, uint64(1), 0
	for (l+9)/10 <= u/10 {
		l, a, u, p, j = (l+9)/10, a/10, u/10, p*10, j+1
	}
	// x is 4(w - a·p), rounded to odd if inexact: the nearer of a·p and
	// (a+1)·p is on the side of 2p that it falls on. a rounds up when it is
	// below l, or when it is not u and (a+1)·p is nearer; a tie declines.
	x := 2*(c2-2*a*p) | cnz
	below, atU := (a-l)>>63, ((a^u)-1)>>63 // a < l, a == u
	if x == 2*p && below|atU == 0 {
		return dst, false
	}
	a += below | (2*p-x)>>63&^atU
	// a·p is in [1e16, 1e17]: 17 digits, of which the last j are zeros.
	if j == 17 {
		p, j, k = p/10, 16, k-1
	}
	w, nd := a*p, 17-j
	// Laid out as %g does its shortest digits: 0.d × 10^dp in %e form when
	// the exponent is below -4 or at least 6, in %f form otherwise.
	dp := 17 - k
	n := len(dst)
	if cap(dst)-n < 24 {
		dst = append(dst, make([]byte, 24)...)
	}
	out := dst[n : n+24] // sign, "0.000" or a point, 17 digits or d and "e-06" at most
	if b>>63 != 0 {
		out[0] = '-'
		n, out = n+1, out[1:]
	}
	// All 17 digits go where those after the point stay; those before it
	// then move up by one.
	exp, first, end := dp-1, 1, nd+1
	sci := exp < -4 || exp >= 6
	switch {
	case sci:
		dp = 1
	case dp <= 0:
		first, end = 2-dp, 2-dp+nd
		copy(out, "0.000")
	case dp >= nd:
		first, end = 0, dp
	}
	out[first] = '0' + byte(w/1e16)
	put8(out[first+1:], uint32(w%1e16/1e8))
	put8(out[first+9:], uint32(w%1e8))
	if first == 1 {
		for i := 0; i < dp; i++ {
			out[i] = out[i+1]
		}
		if out[dp] = '.'; nd == 1 {
			end = 1 // "1e+06", not "1.e+06"
		}
	}
	if sci {
		sign := byte('+')
		if exp < 0 {
			sign, exp = '-', -exp
		}
		out[end], out[end+1], out[end+2], out[end+3] = 'e', sign, digitPairs[exp*2], digitPairs[exp*2+1]
		end += 4
	}
	return dst[:n+end], true
}

// put8 writes the 8 digits of v < 1e8 to out, all in one word: v splits
// into two 4-digit lanes of 32 bits, those into four 2-digit lanes of 16 bits
// and those into eight digits, one per byte, first digit lowest. Each
// quotient is a multiplication and a shift that is exact over the lane's
// range, and no lane overflows into the next.
func put8(out []byte, v uint32) {
	x := uint64(v/1e4) | uint64(v%1e4)<<32
	q := x * 5243 >> 19 & 0x0000007f0000007f // /100, exact below 43 699
	x = q | (x-100*q)<<16
	q = x * 103 >> 10 & 0x000f000f000f000f // /10, exact below 179
	x = q | (x-10*q)<<8
	binary.LittleEndian.PutUint64(out, x+0x3030303030303030)
}

// shr128 returns hi:lo >> s, which must fit in 64 bits, and 1 if a bit that
// was shifted out was set, 0 if none was.
func shr128(hi, lo uint64, s uint) (q, dropped uint64) {
	if s < 64 {
		q, dropped = hi<<(64-s)|lo>>s, lo<<(64-s)
	} else {
		q, dropped = hi>>(s-64), lo|hi<<(128-s)
	}
	return q, (dropped | -dropped) >> 63
}
