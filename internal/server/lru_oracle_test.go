package server

import (
	"container/list"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"catamount/internal/shard"
)

// These property tests pin the sharded response cache to the original
// single-mutex lruCache, kept at the end of this file as the oracle: a
// single-shard shard.LRU must be operation-for-operation identical to it,
// and a multi-shard one must be identical per shard (each shard is an
// independent LRU over its key subset and capacity slice).

// oracleOps drives n random get/add operations over k keys through both
// caches, failing on the first divergence.
func oracleOps(t *testing.T, rng *rand.Rand, sharded *shard.LRU[[]byte], oracle func(key string) *lruCache, n, k int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", rng.Intn(k))
		if rng.Intn(2) == 0 {
			val := []byte(fmt.Sprintf("val-%d", i))
			sharded.Add(key, val)
			oracle(key).add(key, val)
			continue
		}
		got, gotOK := sharded.Get(key)
		want, wantOK := oracle(key).get(key)
		if gotOK != wantOK || string(got) != string(want) {
			t.Fatalf("op %d: Get(%q) = (%q, %v), oracle (%q, %v)", i, key, got, gotOK, want, wantOK)
		}
	}
}

// TestShardedLRUMatchesOracleSingleShard: with one shard, the sharded
// cache must reproduce the original LRU's observable behavior exactly —
// same hits, same misses, same evictions, on any operation sequence.
func TestShardedLRUMatchesOracleSingleShard(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 32} {
		capacity := capacity
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			sharded := shard.NewLRU[[]byte](capacity, 1)
			oracle := newLRU(capacity)
			oracleOps(t, rng, sharded, func(string) *lruCache { return oracle }, 4000, 3*capacity)
			if sharded.Len() != oracle.len() {
				t.Fatalf("Len() = %d, oracle %d", sharded.Len(), oracle.len())
			}
		})
	}
}

// TestShardedLRUMatchesPerShardOracle: with several shards, each shard is
// an independent single-mutex LRU over the keys that hash to it, sized to
// its slice of the capacity. One oracle per shard, routed by the same
// FNV-1a hash, must stay in lockstep.
func TestShardedLRUMatchesPerShardOracle(t *testing.T) {
	const capacity, shards = 61, 4 // deliberately not divisible: remainder spreads
	sharded := shard.NewLRU[[]byte](capacity, shards)
	if sharded.ShardCount() != shards {
		t.Fatalf("ShardCount() = %d, want %d", sharded.ShardCount(), shards)
	}
	oracles := make([]*lruCache, shards)
	for i := range oracles {
		per := capacity / shards
		if i < capacity%shards {
			per++
		}
		oracles[i] = newLRU(per)
	}
	route := func(key string) *lruCache {
		return oracles[shard.Hash(key)&uint32(shards-1)]
	}
	rng := rand.New(rand.NewSource(61))
	oracleOps(t, rng, sharded, route, 8000, 200)

	total := 0
	for i, o := range oracles {
		if got := sharded.ShardLen(i); got != o.len() {
			t.Fatalf("shard %d: len %d, oracle %d", i, got, o.len())
		}
		total += o.len()
	}
	if sharded.Len() != total {
		t.Fatalf("Len() = %d, oracles total %d", sharded.Len(), total)
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
// reference implementation the property tests above compare against. The
// serving hot path itself runs on shard.LRU (see server.go), whose
// single-shard configuration reproduces exactly this cache's observable
// behavior.
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
