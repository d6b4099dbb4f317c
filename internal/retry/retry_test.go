package retry

import (
	"errors"
	"fmt"
	"math/bits"
	"testing"
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
