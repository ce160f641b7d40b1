package service

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"respat/internal/core"
)

// testKey builds a synthetic key whose float fields derive from i, so
// distinct i give distinct keys.
func testKey(i int) Key {
	c := core.Costs{DiskCkpt: float64(i + 1), Recall: 1}
	return EncodeKey(ModePlan, core.PD, c, core.Rates{Silent: 1e-6})
}

// TestCoalescingComputesOnce gates the computation so every goroutine
// arrives while it is in flight: exactly one computes, the rest
// coalesce onto the same flight and observe identical bytes.
func TestCoalescingComputesOnce(t *testing.T) {
	var m Metrics
	c := newCache(4, 64, &m)
	key := testKey(1)

	const goroutines = 16
	var computes atomic.Int32
	gate := make(chan struct{})
	arrived := make(chan struct{}, 1)

	var wg sync.WaitGroup
	results := make([][]byte, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := c.getOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
				arrived <- struct{}{}
				<-gate
				computes.Add(1)
				return []byte(`{"v":1}`), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = resp
		}(g)
	}
	<-arrived // one goroutine holds the flight...
	// Let every other goroutine reach the cache. They either coalesce
	// or (if not yet scheduled) will hit the cache after insertion;
	// both paths must return the same bytes. Release the gate once all
	// requests are in flight or queued.
	gate <- struct{}{}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for g, r := range results {
		if !bytes.Equal(r, results[0]) {
			t.Fatalf("goroutine %d saw %q, others %q", g, r, results[0])
		}
	}
	if m.Misses.Load() != 1 {
		t.Fatalf("misses = %d, want 1", m.Misses.Load())
	}
	if got := m.Hits.Load() + m.Coalesced.Load(); got != goroutines-1 {
		t.Fatalf("hits+coalesced = %d, want %d", got, goroutines-1)
	}
}

// TestScatteredKeysComputeOncePerKey hammers a scattered key-set from
// many goroutines: every unique key is computed exactly once.
func TestScatteredKeysComputeOncePerKey(t *testing.T) {
	var m Metrics
	c := newCache(8, 4096, &m)
	const keys = 64
	const goroutines = 8

	var computes [keys]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				i := (i + g) % keys // stagger start offsets per goroutine
				_, err := c.getOrCompute(context.Background(), testKey(i), func(context.Context) ([]byte, error) {
					computes[i].Add(1)
					return []byte(fmt.Sprintf(`{"v":%d}`, i)), nil
				})
				if err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()

	for i := range computes {
		if n := computes[i].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", i, n)
		}
	}
	if m.Misses.Load() != keys {
		t.Errorf("misses = %d, want %d", m.Misses.Load(), keys)
	}
	if total := m.Hits.Load() + m.Misses.Load() + m.Coalesced.Load(); total != keys*goroutines {
		t.Errorf("hits+misses+coalesced = %d, want %d", total, keys*goroutines)
	}
}

// TestSieveEviction: a full shard evicts an entry no hit has marked
// since the sweep last passed it, bounded capacity holds, and an
// evicted key is recomputed on return.
func TestSieveEviction(t *testing.T) {
	var m Metrics
	c := newCache(1, 4, &m) // one shard, capacity 4
	var computes atomic.Int32
	get := func(i int) {
		t.Helper()
		if _, err := c.getOrCompute(context.Background(), testKey(i), func(context.Context) ([]byte, error) {
			computes.Add(1)
			return []byte(`{}`), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		get(i)
	}
	if n := c.len(); n != 4 {
		t.Fatalf("cache holds %d entries, want 4", n)
	}
	if ev := m.Evictions.Load(); ev != 6 {
		t.Fatalf("evictions = %d, want 6", ev)
	}
	// Keys 6-9 are resident; key 0 was evicted.
	before := computes.Load()
	get(9)
	if computes.Load() != before {
		t.Fatal("resident key was recomputed")
	}
	get(0)
	if computes.Load() != before+1 {
		t.Fatal("evicted key was not recomputed")
	}
	// A hit, not insertion order, decides the victim: touching key 7,
	// now the oldest, then inserting two fresh keys must keep 7
	// resident.
	get(7)
	get(100)
	get(101)
	before = computes.Load()
	get(7)
	if computes.Load() != before {
		t.Fatal("recently used key was evicted")
	}
}

// sieveModel is a slice-backed SIEVE over int keys: queue holds the
// keys oldest first, visited their marks, and hand the index the next
// sweep starts from.
type sieveModel struct {
	capacity int
	queue    []int
	visited  []bool
	hand     int
}

// access requests k and reports whether it hit and whether it evicted
// a key.
func (m *sieveModel) access(k int) (hit, evicted bool) {
	if i := slices.Index(m.queue, k); i >= 0 {
		m.visited[i] = true
		return true, false
	}
	if len(m.queue) == m.capacity {
		i := m.hand
		for m.visited[i] {
			m.visited[i] = false
			i = (i + 1) % len(m.queue)
		}
		evicted = true
		m.queue = slices.Delete(m.queue, i, i+1)
		m.visited = slices.Delete(m.visited, i, i+1)
		m.hand = i % max(len(m.queue), 1)
	}
	m.queue = append(m.queue, k)
	m.visited = append(m.visited, false)
	return false, evicted
}

// TestSieveMatchesModel replays seeded random access sequences on one
// shard, through both the plain lookup and the coalescing path, and
// requires the model's hit, eviction and queue (keys oldest first)
// after every step.
func TestSieveMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 24))
		capacity := 1 + rng.IntN(8)
		keys := capacity + 1 + rng.IntN(3*capacity)
		index := make(map[Key]int, keys)
		for k := 0; k < keys; k++ {
			index[testKey(k)] = k
		}
		var m Metrics
		c := newCache(1, capacity, &m)
		model := &sieveModel{capacity: capacity}
		resp := []byte(`{}`)
		for step := 0; step < 2000; step++ {
			// Skew the draw so some keys come back while still resident.
			k := rng.IntN(1 + rng.IntN(keys))
			hits, evictions := m.Hits.Load(), m.Evictions.Load()
			if _, ok := c.get(testKey(k)); !ok || rng.IntN(2) == 0 {
				if _, err := c.getOrCompute(context.Background(), testKey(k), func(context.Context) ([]byte, error) {
					return resp, nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			wantHit, evicted := model.access(k)
			if hit := m.Hits.Load() > hits; hit != wantHit {
				t.Fatalf("seed %d step %d key %d: hit %v, model %v", seed, step, k, hit, wantHit)
			}
			if ev := m.Evictions.Load() - evictions; (ev == 1) != evicted || ev > 1 {
				t.Fatalf("seed %d step %d key %d: %d evictions, model evicted %v", seed, step, k, ev, evicted)
			}
			var queue []int
			for e := c.shards[0].oldest; e != nil; e = e.newer {
				queue = append(queue, index[e.key])
			}
			if !slices.Equal(queue, model.queue) {
				t.Fatalf("seed %d step %d key %d: queue %v, model %v", seed, step, k, queue, model.queue)
			}
		}
	}
}

// lruShard is one shard of the least-recently-used policy the cache
// kept before SIEVE, as a model: front is the most recently used.
type lruShard struct {
	pos   map[int]*list.Element
	order *list.List
}

// access requests k and reports whether it hit.
func (s *lruShard) access(k, capacity int) bool {
	if el, ok := s.pos[k]; ok {
		s.order.MoveToFront(el)
		return true
	}
	s.pos[k] = s.order.PushFront(k)
	if s.order.Len() > capacity {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.pos, back.Value.(int))
	}
	return false
}

// TestSieveMissesFewerThanLRU replays a seeded Zipf(1.1) sequence over
// 100,000 keys, the benchmark's zipf-tail shape, through the service's
// default cache (4,096 entries in 16 shards): after 20,000 warm-up
// requests, SIEVE must miss fewer of the next 200,000 than LRU over the
// same shards.
func TestSieveMissesFewerThanLRU(t *testing.T) {
	const (
		shards, capacity = 16, 4096
		keys             = 100_000
		warmup, timed    = 20_000, 200_000
	)
	var m Metrics
	c := newCache(shards, capacity, &m)
	lru := make([]lruShard, shards)
	for i := range lru {
		lru[i] = lruShard{pos: make(map[int]*list.Element), order: list.New()}
	}
	zipf := rand.NewZipf(rand.New(rand.NewPCG(1, 24)), 1.1, 1, keys-1)
	resp := []byte(`{}`)
	var sieveBase int64
	var lruMisses int
	for i := 0; i < warmup+timed; i++ {
		if i == warmup {
			sieveBase = m.Misses.Load()
		}
		k := int(zipf.Uint64())
		key := testKey(k)
		if _, err := c.getOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
			return resp, nil
		}); err != nil {
			t.Fatal(err)
		}
		if !lru[key.hash()&(shards-1)].access(k, capacity/shards) && i >= warmup {
			lruMisses++
		}
	}
	sieveMisses := m.Misses.Load() - sieveBase
	t.Logf("misses over %d requests: SIEVE %d (%.1f%%), LRU %d (%.1f%%)",
		timed, sieveMisses, 100*float64(sieveMisses)/timed, lruMisses, 100*float64(lruMisses)/timed)
	if sieveMisses >= int64(lruMisses) {
		t.Fatalf("SIEVE missed %d times, LRU %d", sieveMisses, lruMisses)
	}
}

// TestErrorsNotCached: a failed computation is not inserted; the next
// request retries, and coalesced waiters observe the shared error.
func TestErrorsNotCached(t *testing.T) {
	var m Metrics
	c := newCache(2, 16, &m)
	key := testKey(3)
	boom := errors.New("boom")
	var calls atomic.Int32
	for i := 0; i < 3; i++ {
		_, err := c.getOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
			calls.Add(1)
			return nil, boom
		})
		if err != boom {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("failed computation ran %d times, want 3 (errors must not be cached)", n)
	}
	if c.len() != 0 {
		t.Fatal("error was inserted into the cache")
	}
}
