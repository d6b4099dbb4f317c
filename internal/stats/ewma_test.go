package stats

import (
	"math"
	"testing"
	"time"
)

func TestEWMA(t *testing.T) {
	var e EWMA
	if _, n := e.Mean(); n != 0 {
		t.Errorf("zero value has %d observations", n)
	}
	e.Observe(0) // ignored
	e.Observe(100 * time.Millisecond)
	if v, n := e.Mean(); n != 1 || v != 0.1 {
		t.Errorf("after first observe: %v/%d, want 0.1/1", v, n)
	}
	e.Observe(200 * time.Millisecond)
	v, n := e.Mean()
	if n != 2 {
		t.Errorf("n = %d, want 2", n)
	}
	// alpha 0.2: 0.2*200ms + 0.8*100ms = 120ms
	if math.Abs(v-0.12) > 1e-9 {
		t.Errorf("ewma = %v s, want 0.12", v)
	}
}
