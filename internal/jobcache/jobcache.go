// Package jobcache is capserved's keyed result cache: identical what-if
// queries (same fleet, days, seed, plan configuration) hit the cache and
// return instantly instead of re-simulating the fleet.
//
// Keys content-hash the canonicalized request (Key), values are bounded by
// LRU eviction, and concurrent identical requests are deduplicated by
// single-flight execution: the first caller computes, the rest wait for the
// same result.
package jobcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Key content-hashes a request into a cache key. Parts are canonicalized
// through encoding/json — struct fields in declaration order, map keys
// sorted — so two requests that decode to the same canonical form share a
// key regardless of wire-level field order or whitespace. The endpoint name
// should be one of the parts so equal payloads to different endpoints never
// collide.
func Key(parts ...any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("jobcache: canonicalize key: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// entry is one cached value with its LRU list node.
type entry struct {
	key string
	val any
}

// Uncacheable wraps a computation result that must be returned to the
// caller but never stored: degraded results (partial aggregates after pool
// failures) must not short-circuit future computations as if they were
// complete. Do unwraps it, returns the inner value, and skips the store.
type Uncacheable struct{ Value any }

// call is one in-flight computation shared by duplicate requests.
type call struct {
	done chan struct{}
	val  any
	err  error
	// joined counts callers attached to this flight (written under Cache.mu
	// before they block on done). Shared is only counted after a successful
	// flight, so tests that need "everyone has attached" poll this instead.
	joined int
}

// Cache is a bounded LRU of computed results with single-flight
// deduplication. The zero value is not usable; construct with New.
type Cache struct {
	capacity int

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*call

	hits     atomic.Int64
	misses   atomic.Int64
	shared   atomic.Int64
	uncached atomic.Int64
}

// New returns a cache holding at most capacity results (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Do returns the value for key, computing it with fn on a miss. Concurrent
// calls for the same key share a single fn execution (single-flight); the
// value is cached only on success, so errors are retried by the next
// caller. hit reports whether a usable value came from the cache or from a
// shared flight rather than a fresh execution by this caller: a joined
// flight that failed is not a hit (hit is false and the flight's error is
// returned).
//
// A panicking fn does not wedge the key: the in-flight entry is removed and
// waiters receive an error, while the panic propagates to fn's caller.
func (c *Cache) Do(key string, fn func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		fl.joined++
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			// The shared execution failed; joining it is not a hit.
			return fl.val, false, fl.err
		}
		c.shared.Add(1)
		return fl.val, true, nil
	}
	fl := &call{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	finished := false
	defer func() {
		if !finished {
			// fn panicked: remove the wedged flight and wake waiters with an
			// error before the panic continues unwinding, so later (and
			// concurrent) calls for this key recompute instead of hanging.
			fl.err = errors.New("jobcache: computation panicked")
			c.mu.Lock()
			delete(c.inflight, key)
			c.mu.Unlock()
			close(fl.done)
		}
	}()
	fl.val, fl.err = fn()
	finished = true

	store := fl.err == nil
	if u, ok := fl.val.(Uncacheable); ok {
		fl.val = u.Value
		store = false
		c.uncached.Add(1)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	if store {
		c.add(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, false, fl.err
}

// add inserts under c.mu, evicting the least recently used entry beyond
// capacity.
func (c *Cache) add(key string, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats is a point-in-time view of cache effectiveness.
type Stats struct {
	// Hits counts Do calls answered from the cache; Shared counts calls
	// answered with a successful value by joining another caller's in-flight
	// computation (a joined flight that failed counts as neither); Misses
	// counts calls that executed fn.
	Hits, Misses, Shared int64
	// Uncacheable counts executions whose result asked not to be stored
	// (degraded results).
	Uncacheable int64
	// Size is the number of cached results; Capacity the LRU bound.
	Size, Capacity int
}

// Stats returns cumulative counters and current size.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Shared:      c.shared.Load(),
		Uncacheable: c.uncached.Load(),
		Size:        c.Len(),
		Capacity:    c.capacity,
	}
}
