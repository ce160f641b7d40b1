package service

import (
	"context"
	"sync"

	"respat/internal/obs"
)

// cache is the sharded plan cache with SIEVE eviction and singleflight
// request coalescing. Values are fully marshalled JSON response bodies,
// so a cache hit serves exactly the bytes a cold computation produced
// (the cache is a pure memo; see DESIGN.md §3). Sharding splits the
// lock so unrelated configurations do not contend; a shard's lock
// guards only its entries and in-flight map, never a computation.
type cache struct {
	shards []shard
	mask   uint64 // len(shards) - 1; len is a power of two
	m      *Metrics
}

// shard is one lock domain of the cache. Its entries form a FIFO queue
// evicted by SIEVE (Zhang et al., NSDI 2024): a hit only marks its
// entry visited, and eviction sweeps a hand toward the newest entry,
// wrapping to the oldest, clearing marks until it finds an unmarked
// entry.
type shard struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	newest   *entry // front of the FIFO
	oldest   *entry // back of the FIFO
	hand     *entry // next entry the sweep examines; nil = oldest
	capacity int    // max entries; > 0
	inflight map[Key]*flight
}

// entry is one cached response and its place in its shard's FIFO. It
// carries its own links, so an insert allocates once.
type entry struct {
	key     Key
	resp    []byte
	visited bool   // hit since the sweep last passed it
	newer   *entry // toward the front; nil at the newest
	older   *entry // toward the back; nil at the oldest
}

// flight is one in-progress computation that concurrent requests for
// the same key coalesce onto. The computation runs in its own
// goroutine under a flight-owned context that is cancelled when the
// last interested request abandons (refs drops to zero) — an orphaned
// cold plan stops searching instead of burning a worker slot for a
// response nobody will read.
type flight struct {
	done   chan struct{} // closed when the computation finished
	cancel context.CancelFunc
	refs   int // interested waiters; guarded by the shard mutex
	resp   []byte
	err    error
}

// newCache builds a cache with shardCount shards (rounded up to a power
// of two) and capacity total entries spread evenly across shards.
func newCache(shardCount, capacity int, m *Metrics) *cache {
	if shardCount < 1 {
		shardCount = 1
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &cache{shards: make([]shard, n), mask: uint64(n - 1), m: m}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry)
		c.shards[i].capacity = perShard
		c.shards[i].inflight = make(map[Key]*flight)
	}
	return c
}

// shard returns the shard owning key.
func (c *cache) shard(key Key) *shard {
	return &c.shards[key.hash()&c.mask]
}

// len returns the total number of cached entries (for the metrics
// endpoint; takes every shard lock in turn).
func (c *cache) len() int {
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// get returns the cached response for key, marking it visited. It is
// the allocation-free hot path: one map lookup and one store.
func (c *cache) get(key Key) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		e.visited = true
		resp := e.resp
		s.mu.Unlock()
		c.m.Hits.Add(1)
		return resp, true
	}
	s.mu.Unlock()
	return nil, false
}

// getOrCompute returns the cached response for key, coalescing
// concurrent misses: among racing requests for the same key exactly one
// starts compute (in a flight-owned goroutine); the rest wait for its
// result. A successful result is inserted into the cache before the
// waiters are released; errors — including cancellations — are never
// cached. Every waiter waits under its own ctx: a request whose
// deadline expires abandons the flight (returning ctx.Err()) without
// disturbing the other waiters, and when the last waiter abandons, the
// flight's context is cancelled so compute can stop early. The
// returned bytes are shared and must be treated as read-only.
func (c *cache) getOrCompute(ctx context.Context, key Key, compute func(context.Context) ([]byte, error)) ([]byte, error) {
	s := c.shard(key)
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			e.visited = true
			resp := e.resp
			s.mu.Unlock()
			c.m.Hits.Add(1)
			return resp, nil
		}
		if f, ok := s.inflight[key]; ok {
			if f.refs > 0 {
				f.refs++
				s.mu.Unlock()
				c.m.Coalesced.Add(1)
				return f.wait(ctx, s)
			}
			// Dying flight: every waiter abandoned and cancellation is
			// in progress. Joining it would only inherit the stale
			// cancellation error, so wait for it to clear and retry.
			s.mu.Unlock()
			select {
			case <-f.done:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// The flight context descends from Background (the computation
		// outlives any one waiter) but carries the leader's trace, so
		// the gate and compute spans recorded inside the flight
		// goroutine land on the request that started it. Spans arriving
		// after that trace finished — the leader abandoned — are
		// dropped by the trace itself.
		fctx, cancel := context.WithCancel(obs.NewContext(context.Background(), obs.FromContext(ctx)))
		f := &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
		s.inflight[key] = f
		s.mu.Unlock()
		c.m.Misses.Add(1)
		go c.run(s, key, f, fctx, compute)
		return f.wait(ctx, s)
	}
}

// run executes one flight's computation and publishes the outcome.
func (c *cache) run(s *shard, key Key, f *flight, fctx context.Context, compute func(context.Context) ([]byte, error)) {
	resp, err := compute(fctx)
	f.cancel() // release the flight context's resources
	s.mu.Lock()
	f.resp, f.err = resp, err
	delete(s.inflight, key)
	if err == nil {
		c.m.Evictions.Add(int64(s.insertLocked(key, resp)))
	}
	s.mu.Unlock()
	close(f.done)
}

// wait blocks until the flight finishes or ctx is done, whichever
// comes first. An abandoning waiter drops its reference; the last one
// out cancels the flight's computation.
func (f *flight) wait(ctx context.Context, s *shard) ([]byte, error) {
	select {
	case <-f.done:
		return f.resp, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.refs--
		last := f.refs == 0
		s.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}

// insertLocked adds a response under s.mu as the newest entry, first
// evicting one entry by SIEVE if the shard is full, and reports how
// many were evicted.
func (s *shard) insertLocked(key Key, resp []byte) int {
	if e, ok := s.entries[key]; ok {
		// Unreachable today (inflight serialises inserts per key) but
		// kept so a future writer cannot corrupt the queue by double
		// insertion: refresh instead.
		e.resp, e.visited = resp, true
		return 0
	}
	var evicted int
	if len(s.entries) >= s.capacity {
		s.evictLocked()
		evicted++
	}
	e := &entry{key: key, resp: resp, older: s.newest}
	if s.newest != nil {
		s.newest.newer = e
	} else {
		s.oldest = e
	}
	s.newest = e
	s.entries[key] = e
	return evicted
}

// evictLocked removes one entry under s.mu: the hand walks from where
// it stopped toward the newest entry, wrapping to the oldest, clears
// each visited mark it passes and evicts the first unmarked entry. The
// hand then rests on the next newer entry.
func (s *shard) evictLocked() {
	e := s.hand
	if e == nil {
		e = s.oldest
	}
	for e.visited {
		e.visited = false
		if e = e.newer; e == nil {
			e = s.oldest
		}
	}
	s.hand = e.newer
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		s.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		s.oldest = e.newer
	}
	delete(s.entries, e.key)
}
