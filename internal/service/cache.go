package service

import (
	"container/list"
	"context"
	"sync"

	"respat/internal/obs"
)

// cache is the sharded LRU plan cache with singleflight request
// coalescing. Values are fully marshalled JSON response bodies, so a
// cache hit serves exactly the bytes a cold computation produced (the
// cache is a pure memo; see DESIGN.md §3). Sharding splits the lock so
// unrelated configurations do not contend; a shard's lock guards only
// its LRU and in-flight map, never a computation.
type cache struct {
	shards []shard
	mask   uint64 // len(shards) - 1; len is a power of two
	m      *Metrics
}

// shard is one lock domain of the cache.
type shard struct {
	mu       sync.Mutex
	entries  map[Key]*list.Element // key -> element whose Value is *entry
	lru      *list.List            // front = most recently used
	capacity int                   // max entries; > 0
	inflight map[Key]*flight
}

// entry is one cached response.
type entry struct {
	key  Key
	resp []byte
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
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].lru = list.New()
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

// get returns the cached response for key, refreshing its LRU position.
// It is the allocation-free hot path: one map lookup plus a list splice.
func (c *cache) get(key Key) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		resp := el.Value.(*entry).resp
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
// result. A successful result is inserted into the LRU before the
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
		if el, ok := s.entries[key]; ok {
			s.lru.MoveToFront(el)
			resp := el.Value.(*entry).resp
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

// insertLocked adds a response under s.mu, evicting least recently used
// entries while the shard is over capacity, and reports how many were
// evicted.
func (s *shard) insertLocked(key Key, resp []byte) int {
	if el, ok := s.entries[key]; ok {
		// Unreachable today (inflight serialises inserts per key) but
		// kept so a future writer cannot corrupt the LRU by double
		// insertion: refresh instead.
		el.Value.(*entry).resp = resp
		s.lru.MoveToFront(el)
		return 0
	}
	s.entries[key] = s.lru.PushFront(&entry{key: key, resp: resp})
	var evicted int
	for s.lru.Len() > s.capacity {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.entries, tail.Value.(*entry).key)
		evicted++
	}
	return evicted
}
