package jobcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyDeterministicAndDistinct(t *testing.T) {
	type req struct {
		Days int
		Seed int64
	}
	k1, err := Key("plan", req{Days: 1, Seed: 7})
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	k2, _ := Key("plan", req{Days: 1, Seed: 7})
	if k1 != k2 {
		t.Errorf("identical requests keyed differently: %s vs %s", k1, k2)
	}
	k3, _ := Key("plan", req{Days: 2, Seed: 7})
	if k1 == k3 {
		t.Error("different requests share a key")
	}
	k4, _ := Key("simulate", req{Days: 1, Seed: 7})
	if k1 == k4 {
		t.Error("different endpoints share a key for equal payloads")
	}
}

func TestKeyCanonicalizesMapOrder(t *testing.T) {
	// encoding/json sorts map keys, so insertion order must not matter.
	k1, _ := Key(map[string]int{"a": 1, "b": 2, "c": 3})
	m := map[string]int{}
	for _, kv := range []struct {
		k string
		v int
	}{{"c", 3}, {"b", 2}, {"a", 1}} {
		m[kv.k] = kv.v
	}
	k2, _ := Key(m)
	if k1 != k2 {
		t.Error("map insertion order changed the key")
	}
}

func TestKeyUnencodable(t *testing.T) {
	if _, err := Key(func() {}); err == nil {
		t.Error("Key(func) should fail")
	}
}

func TestDoCachesResult(t *testing.T) {
	c := New(4)
	var calls atomic.Int32
	fn := func() (any, error) { calls.Add(1); return "v", nil }

	v, hit, err := c.Do("k", fn)
	if err != nil || v != "v" || hit {
		t.Fatalf("first Do = %v, hit=%v, err=%v", v, hit, err)
	}
	v, hit, err = c.Do("k", fn)
	if err != nil || v != "v" || !hit {
		t.Fatalf("second Do = %v, hit=%v, err=%v; want cache hit", v, hit, err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(4)
	var calls atomic.Int32
	boom := errors.New("boom")
	fn := func() (any, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do("k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do("k", fn)
	if err != nil || v != "ok" || hit {
		t.Fatalf("retry after error = %v, hit=%v, err=%v", v, hit, err)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Do("a", func() (any, error) { return 1, nil })
	c.Do("b", func() (any, error) { return 2, nil })
	c.Do("a", func() (any, error) { t.Error("a recomputed"); return nil, nil }) // touch a
	c.Do("c", func() (any, error) { return 3, nil })                            // evicts b

	// Probe with Do: a hit is a resident key. b is probed last, as its miss
	// stores it and evicts the then least recently used key.
	cached := func(key string) bool {
		_, hit, _ := c.Do(key, func() (any, error) { return 0, nil })
		return hit
	}
	if !cached("a") {
		t.Error("a evicted despite recent use")
	}
	if !cached("c") {
		t.Error("c missing")
	}
	if cached("b") {
		t.Error("b survived eviction despite being LRU")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestSingleFlightDedup(t *testing.T) {
	c := New(4)
	var calls atomic.Int32
	gate := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	results := make([]any, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do("k", func() (any, error) {
				calls.Add(1)
				<-gate
				return "shared", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	// Let every goroutine attach to the flight before releasing the one
	// computation. Shared is only counted after a successful join, so poll
	// the flight's joined count instead of the stats counters.
	for {
		c.mu.Lock()
		fl, ok := c.inflight["k"]
		joined := 0
		if ok {
			joined = fl.joined
		}
		c.mu.Unlock()
		if ok && joined == n-1 {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times under concurrency, want 1", n)
	}
	var leaders int
	for i := range results {
		if results[i] != "shared" {
			t.Errorf("result[%d] = %v", i, results[i])
		}
		if !hits[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d, want exactly 1", leaders)
	}
	if s := c.Stats(); s.Shared != n-1 {
		t.Errorf("shared = %d, want %d", s.Shared, n-1)
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New(0) // clamped to 1
	c.Do("a", func() (any, error) { return 1, nil })
	c.Do("b", func() (any, error) { return 2, nil })
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%12)
				v, _, err := c.Do(key, func() (any, error) { return key, nil })
				if err != nil || v != key {
					t.Errorf("Do(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("len = %d exceeds capacity", c.Len())
	}
}

// TestFailedFlightNotHit pins the error-flight contract: a caller who joins
// another caller's in-flight computation that ultimately fails must see
// hit=false and the flight's error, and must bump neither Hits nor Shared.
func TestFailedFlightNotHit(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := c.Do("k", func() (any, error) {
			close(started)
			<-release
			return nil, boom
		})
		if hit || !errors.Is(err, boom) {
			t.Errorf("leader: hit=%v err=%v, want hit=false err=boom", hit, err)
		}
	}()
	<-started

	const joiners = 4
	ready := make(chan struct{}, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready <- struct{}{}
			_, hit, err := c.Do("k", func() (any, error) {
				// Only runs if this goroutine raced past the flight and became
				// a leader itself; return the same error so the assertions
				// below still hold for this caller.
				return nil, boom
			})
			if hit {
				t.Error("joiner of a failed flight reported hit=true")
			}
			if !errors.Is(err, boom) {
				t.Errorf("joiner err = %v, want boom", err)
			}
		}()
	}
	for i := 0; i < joiners; i++ {
		<-ready
	}
	// All joiners are at most an instruction away from registering on the
	// flight; the pause makes a stray self-leader vanishingly unlikely.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	s := c.Stats()
	if s.Hits != 0 || s.Shared != 0 {
		t.Errorf("stats = %+v; a failed flight must count as neither hit nor shared", s)
	}
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1 (only the leader executed)", s.Misses)
	}
	if c.Len() != 0 {
		t.Errorf("len = %d; errors must not be cached", c.Len())
	}
}

// TestPanickingFnDoesNotWedgeKey pins panic behavior: the panic propagates to
// the leader's caller, a concurrent joiner receives an error instead of
// blocking forever, and the key is recomputable afterward.
func TestPanickingFnDoesNotWedgeKey(t *testing.T) {
	c := New(4)
	started := make(chan struct{})
	release := make(chan struct{})

	joinerErr := make(chan error, 1)
	ready := make(chan struct{})
	go func() {
		<-started
		close(ready)
		_, hit, err := c.Do("k", func() (any, error) {
			// Only runs if this goroutine raced past the flight; fail the
			// same way so the channel still carries a non-nil error.
			return nil, errors.New("jobcache: computation panicked")
		})
		if hit {
			t.Error("joiner of a panicked flight reported hit=true")
		}
		joinerErr <- err
	}()

	go func() {
		<-ready
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of Do")
			}
		}()
		c.Do("k", func() (any, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()

	select {
	case err := <-joinerErr:
		if err == nil {
			t.Error("joiner got nil error from a panicked flight")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner still blocked 5s after the flight panicked: key is wedged")
	}

	// The key must be usable again.
	v, hit, err := c.Do("k", func() (any, error) { return "fresh", nil })
	if err != nil || hit || v != "fresh" {
		t.Errorf("recompute after panic = %v, hit=%v, err=%v", v, hit, err)
	}
	if s := c.Stats(); s.Hits != 0 || s.Shared != 0 {
		t.Errorf("stats = %+v; panicked flight must count as neither hit nor shared", s)
	}
}
