package retry

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

func TestTransientWrapping(t *testing.T) {
	cause := errors.New("connection reset")
	tests := []struct {
		name      string
		err       error
		transient bool
		isCause   bool
	}{
		{"nil", nil, false, false},
		{"Transient(nil) stays nil", Transient(nil), false, false},
		{"unmarked is permanent", cause, false, true},
		{"marked", Transient(cause), true, true},
		{"double-wrapped", Transient(Transient(cause)), true, true},
		{"marked then wrapped by a caller", fmt.Errorf("shard 3: %w", Transient(cause)), true, true},
		{"the bare sentinel", ErrTransient, true, false},
		{"same text, different error", errors.New(ErrTransient.Error()), false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsTransient(tt.err); got != tt.transient {
				t.Errorf("IsTransient = %v, want %v", got, tt.transient)
			}
			if got := errors.Is(tt.err, cause); got != tt.isCause {
				t.Errorf("errors.Is(err, cause) = %v, want %v", got, tt.isCause)
			}
		})
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) must be nil, or a successful call reads as a failure")
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range []time.Duration{0, 1, 2, 3, time.Millisecond, 100 * time.Millisecond, time.Hour} {
		lo, hi := b, time.Duration(0)
		for i := 0; i < 2000; i++ {
			d := Jitter(rng, b)
			if d < b/2 || d > b {
				t.Fatalf("Jitter(%v) = %v, outside [%v, %v]", b, d, b/2, b)
			}
			lo, hi = min(lo, d), max(hi, d)
		}
		// Below 2 ns there is no half to draw from: the backoff comes back whole.
		if b < 2 && (lo != b || hi != b) {
			t.Errorf("Jitter(%v) drew [%v, %v], want exactly %v", b, lo, hi, b)
		}
		if b >= time.Millisecond && (lo > b/2+b/20 || hi < b-b/20) {
			t.Errorf("Jitter(%v) drew only [%v, %v]: not spread over [b/2, b]", b, lo, hi)
		}
	}
	// A seeded rng gives a reproducible schedule.
	rng = rand.New(rand.NewSource(7))
	want := []time.Duration{81362415, 96996170, 86328111, 52019363, 56065288, 61104541}
	for i, w := range want {
		if got := Jitter(rng, 100*time.Millisecond); got != w {
			t.Errorf("draw %d at seed 7 = %d, pinned %d", i, got, w)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	pinned := []struct{ seed, idx, want int64 }{
		{0, 0, -2152535657050944081},
		{1, 0, -7995527694508729151},
		{1, 1, -4689498862643123097},
		{1, 2, -534904783426661026},
		{-1, 5, -3234237927366542541},
		{42, 1 << 40, -8947651840186240204},
	}
	for _, p := range pinned {
		if got := DeriveSeed(p.seed, p.idx); got != p.want {
			t.Errorf("DeriveSeed(%d, %d) = %d, pinned %d", p.seed, p.idx, got, p.want)
		}
	}
	// Neighbouring indices of one seed, and one index of neighbouring seeds,
	// must land far apart: distinct, and differing in about half their bits.
	seen := map[int64]bool{}
	var flipped, pairs int
	for seed := int64(0); seed < 8; seed++ {
		for idx := int64(0); idx < 64; idx++ {
			d := DeriveSeed(seed, idx)
			if seen[d] {
				t.Fatalf("DeriveSeed(%d, %d) = %d collides with an earlier stream", seed, idx, d)
			}
			seen[d] = true
			flipped += bits.OnesCount64(uint64(d ^ DeriveSeed(seed, idx+1)))
			flipped += bits.OnesCount64(uint64(d ^ DeriveSeed(seed+1, idx)))
			pairs += 2
		}
	}
	if mean := float64(flipped) / float64(pairs); mean < 28 || mean > 36 {
		t.Errorf("neighbouring streams differ in %.1f of 64 bits on average, want about 32", mean)
	}
}
