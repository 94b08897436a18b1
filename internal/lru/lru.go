// Package lru is the service's one bounded in-memory map: string keys
// kept in least-recently-used order, capped by an entry count, a byte
// budget or both. The result cache, the memo tier's snapshot LRU and the
// trace and timeline stores are all instances of it, so there is one
// eviction loop to get right.
//
// A nil *Cache holds nothing: lookups miss, Add does nothing and every
// counter reads zero, so an optional store threads through unchecked.
package lru

import (
	"container/list"
	"strings"
	"sync"
)

// Cache is a bounded map from string keys to values of type V, kept in
// least-recently-used order. Safe for concurrent use.
type Cache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	evicted    uint64
	order      *list.List // of *entry[V]; front = most recently used
	items      map[string]*list.Element
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// New returns a cache that holds at most maxEntries entries whose sizes
// sum to at most maxBytes; 0 turns that bound off.
func New[V any](maxEntries int, maxBytes int64) *Cache[V] {
	return &Cache[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		items:      make(map[string]*list.Element),
	}
}

// Get returns the value stored under key and makes it the most recently
// used entry.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Find returns the value stored under id or, failing that, under the most
// recently used key that has id as a prefix: the short spec hashes the
// HTTP API accepts. Unlike Get it leaves the recency order alone, so
// reading an entry never changes which one is evicted next.
func (c *Cache[V]) Find(id string) (V, bool) {
	var zero V
	if c == nil || id == "" {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		return el.Value.(*entry[V]).val, true
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry[V]); strings.HasPrefix(e.key, id) {
			return e.val, true
		}
	}
	return zero, false
}

// Add stores v, of the given size in bytes, under key as the most
// recently used entry; re-adding a key replaces its value. It then evicts
// from the least recently used end while the cache is over either bound,
// but never the entry just added.
func (c *Cache[V]) Add(key string, v V, size int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&entry[V]{key: key, val: v, size: size})
		c.bytes += size
	}
	for c.order.Len() > 1 &&
		(c.maxEntries > 0 && c.order.Len() > c.maxEntries || c.maxBytes > 0 && c.bytes > c.maxBytes) {
		e := c.order.Remove(c.order.Back()).(*entry[V])
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evicted++
	}
}

// Remove drops the entry under key, if there is one; it counts as no
// eviction.
func (c *Cache[V]) Remove(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.bytes -= c.order.Remove(el).(*entry[V]).size
		delete(c.items, key)
	}
}

// Len returns the number of entries held.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the summed sizes of the entries held.
func (c *Cache[V]) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evicted returns how many entries the bounds have dropped since the
// cache was created. Replacing a key's value or purging is not eviction.
func (c *Cache[V]) Evicted() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Cap returns the entry bound (0 = none).
func (c *Cache[V]) Cap() int {
	if c == nil {
		return 0
	}
	return c.maxEntries
}

// Keys returns the keys held, most recently used first.
func (c *Cache[V]) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}

// Purge drops every entry; the bounds and the eviction count stay.
func (c *Cache[V]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[string]*list.Element)
	c.bytes = 0
}
