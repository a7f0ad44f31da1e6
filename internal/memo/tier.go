package memo

import "container/list"

// defaultCapacity bounds the table when the caller does not.
const defaultCapacity = 4096

// lru is the table's entry store: a map bounded at cap entries that drops
// the least recently used one to admit a new key. All methods are called
// with the Table's lock held.
type lru struct {
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	evictions int64
}

// lruEntry is one list element's payload.
type lruEntry struct {
	key string
	e   Entry
}

func newLRU(capacity int) *lru {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	return &lru{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

func (l *lru) len() int { return l.order.Len() }

// get returns the entry for key and marks it most recently used.
func (l *lru) get(key string) (Entry, bool) {
	el, ok := l.entries[key]
	if !ok {
		return Entry{}, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry).e, true
}

// put writes the entry as the most recently used one, reporting whether a
// new key displaced the least recently used entry.
func (l *lru) put(key string, e Entry) bool {
	if el, ok := l.entries[key]; ok {
		el.Value.(*lruEntry).e = e
		l.order.MoveToFront(el)
		return false
	}
	evicted := false
	if l.order.Len() >= l.cap {
		tail := l.order.Back()
		l.order.Remove(tail)
		delete(l.entries, tail.Value.(*lruEntry).key)
		l.evictions++
		evicted = true
	}
	l.entries[key] = l.order.PushFront(&lruEntry{key: key, e: e})
	return evicted
}
