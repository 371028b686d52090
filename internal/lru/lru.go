// Package lru provides the bounded least-recently-used cache behind the
// server's response cache and the Engine's case-study and planner memos:
// one mutex, one map, and an intrusive recency list, so capacity and
// eviction order are exact across the whole key space.
package lru

import "sync"

// Entry is one key/value pair from a cache dump.
type Entry[V any] struct {
	Key string
	Val V
}

// Stats is a point-in-time view of a cache's lifetime traffic.
type Stats struct {
	Hits, Misses, Evictions int64
}

// node is one element of the intrusive, circular recency list: root.next
// is the most recent entry and root.prev the least recent. Embedding the
// links in the entries avoids container/list's interface boxing.
type node[V any] struct {
	key        string
	val        V
	prev, next *node[V]
}

// Cache is a bounded LRU cache, safe for concurrent use. Every operation
// takes the one mutex.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*node[V]
	root     node[V] // list sentinel

	hits, misses, evictions int64
}

// New builds a cache holding at most capacity entries (at least one).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache[V]{capacity: capacity, items: make(map[string]*node[V], capacity)}
	c.root.next = &c.root
	c.root.prev = &c.root
	return c
}

func (n *node[V]) unlink() {
	n.prev.next = n.next
	n.next.prev = n.prev
}

// moveToFront makes n the most recent entry.
func (c *Cache[V]) moveToFront(n *node[V]) {
	n.unlink()
	c.pushFront(n)
}

func (c *Cache[V]) pushFront(n *node[V]) {
	n.prev = &c.root
	n.next = c.root.next
	c.root.next.prev = n
	c.root.next = n
}

// insert adds a new most-recent entry for a key not in the cache and
// evicts the least recent one if that overflows the capacity.
func (c *Cache[V]) insert(key string, val V) {
	n := &node[V]{key: key, val: val}
	c.items[key] = n
	c.pushFront(n)
	if len(c.items) > c.capacity {
		oldest := c.root.prev
		oldest.unlink()
		delete(c.items, oldest.key)
		c.evictions++
	}
}

// Get returns the cached value and makes it the most recent entry.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(n)
	return n.val, true
}

// Add inserts or replaces the value for key and makes it the most recent
// entry, evicting the least recent entry beyond the capacity.
func (c *Cache[V]) Add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[key]; ok {
		n.val = val
		c.moveToFront(n)
		return
	}
	c.insert(key, val)
}

// GetOrCreate returns the value for key, calling create under the lock to
// insert one on a miss. Concurrent callers for the same key get the same
// value: the memoization contract the Engine's build-once entries rely on.
// create must be cheap (allocate a handle, not compute a result), because
// every other cache operation waits for it.
func (c *Cache[V]) GetOrCreate(key string, create func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[key]; ok {
		c.hits++
		c.moveToFront(n)
		return n.val
	}
	c.misses++
	v := create()
	c.insert(key, v)
	return v
}

// Len reports the live entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Capacity is the entry bound the cache was built with.
func (c *Cache[V]) Capacity() int { return c.capacity }

// Stats snapshots the hit, miss and eviction counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// Dump returns every entry, least recent first. Adding the entries in
// order into an empty cache of the same capacity reproduces this cache's
// contents and recency order: the snapshot-persistence contract.
func (c *Cache[V]) Dump() []Entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[V], 0, len(c.items))
	for n := c.root.prev; n != &c.root; n = n.prev {
		out = append(out, Entry[V]{Key: n.key, Val: n.val})
	}
	return out
}
