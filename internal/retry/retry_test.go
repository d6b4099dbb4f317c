package retry

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
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
	draw := Seeded(7)
	want := []time.Duration{81362415, 96996170, 86328111, 52019363, 56065288, 61104541}
	for i, w := range want {
		if got := Jitter(rng, 100*time.Millisecond); got != w {
			t.Errorf("draw %d at seed 7 = %d, pinned %d", i, got, w)
		}
		if got := draw(100 * time.Millisecond); got != w {
			t.Errorf("Seeded(7) draw %d = %d, pinned %d", i, got, w)
		}
	}
}

// TestSeededConcurrentDraws: the job queue's workers share one Seeded draw;
// the race detector is the judge.
func TestSeededConcurrentDraws(t *testing.T) {
	draw := Seeded(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if d := draw(Backoff); d < Backoff/2 || d > Backoff {
					t.Errorf("draw = %v, outside [%v, %v]", d, Backoff/2, Backoff)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDoContract holds Do to its rules, one row each. The jitter draw
// records the backoff it is asked for and returns the row's draw, so no row
// sleeps for long.
func TestDoContract(t *testing.T) {
	blip := Transient(errors.New("blip"))
	fatal := errors.New("disk on fire")
	const ms = time.Millisecond
	tests := []struct {
		name     string
		attempts int
		errs     []error       // attempt n returns errs[n-1], the last one from then on
		deadline time.Duration // ctx deadline, none if 0
		cancel   string        // "attempt": attempt 1 cancels ctx; "sleep": ctx is cancelled 1 ms into the first sleep
		draw     time.Duration // what the jitter draw returns

		calls   int
		draws   []time.Duration
		retries int     // onRetry calls
		is      []error // errors.Is(err, each) holds; if empty, err is the last attempt's own error
		text    string  // err's text contains it
	}{
		{name: "success on the first attempt", attempts: 3, errs: []error{nil}, calls: 1},
		{name: "transient error, then success", attempts: 3, errs: []error{blip, nil},
			calls: 2, draws: []time.Duration{50 * ms}, retries: 1},
		{name: "permanent error, not retried", attempts: 3, errs: []error{fatal}, calls: 1},
		{name: "attempts run out", attempts: 3, errs: []error{blip},
			calls: 3, draws: []time.Duration{50 * ms, 100 * ms}, retries: 2},
		{name: "context ended after an attempt: no draw, no sleep", attempts: 3, errs: []error{blip},
			cancel: "attempt", calls: 1},
		{name: "context cancelled during the sleep", attempts: 3, errs: []error{blip},
			cancel: "sleep", draw: time.Hour,
			calls: 1, draws: []time.Duration{50 * ms}, retries: 1, is: []error{context.Canceled, blip}},
		{name: "backoff that cannot finish before the deadline", attempts: 3, errs: []error{blip},
			deadline: time.Hour, draw: 2 * time.Hour,
			calls: 1, draws: []time.Duration{50 * ms}, is: []error{context.DeadlineExceeded, blip}, text: "retry abandoned"},
		{name: "backoffs double from 50 ms to the 2 s cap, one draw per retry", attempts: 10, errs: []error{blip},
			calls: 10, draws: []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms, 2000 * ms},
			retries: 9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			if tt.deadline > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), tt.deadline)
			}
			defer cancel()
			var draws []time.Duration
			jitter := func(backoff time.Duration) time.Duration {
				draws = append(draws, backoff)
				if tt.cancel == "sleep" {
					time.AfterFunc(ms, cancel)
				}
				return tt.draw
			}
			var calls, retries int
			var last error
			start := time.Now()
			err := Do(ctx, tt.attempts, Backoff, jitter, IsTransient, func(n int, err error) {
				retries++
				if n != calls || err != last {
					t.Errorf("onRetry(%d, %v) after attempt %d failed with %v", n, err, calls, last)
				}
			}, func(n int) error {
				calls++
				if n != calls {
					t.Errorf("attempt numbered %d, want %d", n, calls)
				}
				if tt.cancel == "attempt" {
					cancel()
				}
				last = tt.errs[min(n, len(tt.errs))-1]
				return last
			})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("Do took %s: it slept a sleep it should not have", elapsed)
			}
			if calls != tt.calls {
				t.Errorf("attempts = %d, want %d", calls, tt.calls)
			}
			if !slices.Equal(draws, tt.draws) {
				t.Errorf("backoffs drawn = %v, want %v", draws, tt.draws)
			}
			if retries != tt.retries {
				t.Errorf("onRetry calls = %d, want %d", retries, tt.retries)
			}
			if len(tt.is) == 0 && err != last {
				t.Errorf("err = %v, want the last attempt's error %v itself", err, last)
			}
			for _, target := range tt.is {
				if !errors.Is(err, target) {
					t.Errorf("err = %v, want it to wrap %v", err, target)
				}
			}
			if err == nil && tt.text != "" || err != nil && !strings.Contains(err.Error(), tt.text) {
				t.Errorf("err = %v, want text containing %q", err, tt.text)
			}
		})
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
