// Package lru is the byte-budgeted least-recently-used store behind the
// serving layer's result cache, the campaigns' geometry memo and the
// cluster coordinator's proxied-job routes (one budget unit per route).
package lru

import "container/list"

// LRU maps keys to values and evicts least-recently-used entries until the
// sizes of the values it holds fit its byte budget. It is not safe for
// concurrent use: each owner guards it with its own lock, the lock that
// also covers the owner's hit and miss counters.
type LRU[K comparable, V any] struct {
	budget int64
	size   int64
	ll     *list.List // front = most recently used
	items  map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns an empty LRU bounded to budget bytes.
func New[K comparable, V any](budget int64) *LRU[K, V] {
	return &LRU[K, V]{budget: budget, ll: list.New(), items: map[K]*list.Element{}}
}

// Get returns the value stored under key, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val, which accounts for size bytes, under key as the most
// recently used entry, replacing what the key held, then evicts
// least-recently-used entries until the budget holds. It returns the
// number of entries evicted. A value larger than the whole budget is not
// stored at all, since it would evict every other entry for itself; the
// key keeps what it held.
func (c *LRU[K, V]) Put(key K, val V, size int64) (evicted int) {
	if size > c.budget {
		return 0
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*entry[K, V])
		c.size += size - ent.size
		ent.val, ent.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, size: size})
		c.size += size
	}
	for c.size > c.budget {
		back := c.ll.Back()
		ent := back.Value.(*entry[K, V])
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.size -= ent.size
		evicted++
	}
	return evicted
}

// Len returns the number of stored entries.
func (c *LRU[K, V]) Len() int { return len(c.items) }

// Bytes returns the summed size of the stored values.
func (c *LRU[K, V]) Bytes() int64 { return c.size }

// Budget returns the byte budget.
func (c *LRU[K, V]) Budget() int64 { return c.budget }
