package jobcache

import "testing"

func TestUncacheableReturnedButNeverStored(t *testing.T) {
	c := New(4)
	runs := 0
	degraded := func() (any, error) {
		runs++
		return Uncacheable{Value: "partial"}, nil
	}

	v, hit, err := c.Do("k", degraded)
	if err != nil || hit {
		t.Fatalf("Do = (%v, %v, %v), want fresh execution", v, hit, err)
	}
	if v != "partial" {
		t.Fatalf("value = %v, want the unwrapped inner value", v)
	}

	// An identical later request recomputes instead of being served the
	// partial answer as if it were complete: it was not stored.
	v, hit, err = c.Do("k", degraded)
	if err != nil || hit || v != "partial" {
		t.Fatalf("second Do = (%v, %v, %v), want recomputed value: the degraded result was stored", v, hit, err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	st := c.Stats()
	if st.Uncacheable != 2 || st.Hits != 0 || st.Misses != 2 || st.Size != 0 {
		t.Errorf("stats = %+v, want 2 uncacheable misses and an empty cache", st)
	}

	// A healthy (unwrapped) result on the same key caches normally again.
	v, hit, err = c.Do("k", func() (any, error) { return "full", nil })
	if err != nil || hit || v != "full" {
		t.Fatalf("healthy Do = (%v, %v, %v)", v, hit, err)
	}
	v, hit, _ = c.Do("k", func() (any, error) { return "recomputed", nil })
	if !hit || v != "full" {
		t.Fatalf("healthy result not cached: Do = (%v, hit %v)", v, hit)
	}
}
