package server

import (
	"container/list"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	cat "catamount"
	"catamount/internal/costmodel"
	"catamount/internal/hw"
	"catamount/internal/lru"
)

// TestShardedLRUMatchesOracleSingleShard pins the response cache to the
// original single-mutex lruCache, kept at the end of this file as the
// oracle: on a random operation sequence the lru.Cache must answer every
// Get as the oracle does, which pins its recency order and evictions. The
// name dates from the sharded cache lru.Cache replaced, whose single-shard
// setting this test checked.
func TestShardedLRUMatchesOracleSingleShard(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 32} {
		capacity := capacity
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			cache := lru.New[[]byte](capacity)
			oracle := newLRU(capacity)
			for i := 0; i < 4000; i++ {
				key := fmt.Sprintf("key-%d", rng.Intn(3*capacity))
				if rng.Intn(2) == 0 {
					val := []byte(fmt.Sprintf("val-%d", i))
					cache.Add(key, val)
					oracle.add(key, val)
					continue
				}
				got, gotOK := cache.Get(key)
				want, wantOK := oracle.get(key)
				if gotOK != wantOK || string(got) != string(want) {
					t.Fatalf("op %d: Get(%q) = (%q, %v), oracle (%q, %v)", i, key, got, gotOK, want, wantOK)
				}
			}
			if cache.Len() != oracle.len() {
				t.Fatalf("Len() = %d, oracle %d", cache.Len(), oracle.len())
			}
		})
	}
}

// TestServerCacheHoldsFullCapacity fills a 1,024-entry server cache with
// 1,024 distinct random keys in the analyze handler's format: every one
// must stay resident, with no eviction, whatever GOMAXPROCS is.
func TestServerCacheHoldsFullCapacity(t *testing.T) {
	const capacity = 1024
	s := newTestServer(Config{CacheEntries: capacity})
	rng := rand.New(rand.NewSource(1024))
	domains := cat.Domains()
	acc := accKey(hw.TargetAccelerator())
	seen := make(map[string]bool, capacity)
	for len(seen) < capacity {
		key := fmt.Sprintf("analyze|%s|%g|%g|%s|%s", domains[rng.Intn(len(domains))],
			math.Pow(10, 7+3*rng.Float64()), float64(1+rng.Intn(512)), costmodel.GraphName, acc)
		if !seen[key] {
			seen[key] = true
			s.cache.Add(key, []byte("{}"))
		}
	}
	if m := s.Metrics(); m.CacheEntries != capacity || m.CacheEvictions != 0 {
		t.Fatalf("%d distinct keys left %d resident with %d evictions, want %d and 0",
			capacity, m.CacheEntries, m.CacheEvictions, capacity)
	}
}

// TestServerConcurrentGetsDuringEvictionChurn is the -race hammer at the
// serving layer: a tiny cache forces every add to evict while concurrent
// readers hit the same key space, so any unsynchronized access in the
// cache, single-flight table, or counters trips the race detector.
func TestServerConcurrentGetsDuringEvictionChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test recomputes under churn")
	}
	s := newTestServer(Config{CacheEntries: 2, MaxInFlight: 64})
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = fmt.Sprintf("/v1/analyze?domain=wordlm&params=1.03e9&batch=%d", 96+i)
	}
	// Warm the model (not the responses: capacity 2 keeps evicting).
	rec, _ := get(t, s, paths[0])
	if rec.Code != http.StatusOK {
		t.Fatalf("warm = %d %s", rec.Code, rec.Body)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				req, err := http.NewRequest(http.MethodGet, paths[(g+i)%len(paths)], nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				rec := &verdictRecorder{hdr: make(http.Header)}
				s.ServeHTTP(rec, req)
				if rec.status >= 400 {
					errs <- fmt.Sprintf("worker %d: status %d", g, rec.status)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	m := s.Metrics()
	if m.CacheEntries > 2 {
		t.Fatalf("cache exceeded capacity under churn: %d entries", m.CacheEntries)
	}
	if m.CacheEvictions == 0 {
		t.Fatalf("hammer produced no evictions: %+v", m)
	}
}

// lruCache is the original single-mutex LRU response cache, kept as the
// reference implementation the property test above compares against. The
// serving hot path itself runs on lru.Cache (see server.go), which must
// reproduce exactly this cache's observable behavior.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent
	items    map[string]*list.Element
}

type lruEntry struct {
	key string
	val []byte
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the cached payload and refreshes its recency.
func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts (or refreshes) a payload, evicting the least-recently-used
// entry beyond capacity.
func (c *lruCache) add(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// len reports the live entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
