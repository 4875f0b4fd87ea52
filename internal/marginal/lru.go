package marginal

import "slices"

// VarLRU is a bounded least-recently-used map from canonical variable
// lists to values: entries are keyed by the compact uint64 hash of the
// list (VarsKey) and verified against the stored vars on every lookup,
// so hash collisions can never return a value for the wrong identity.
// It is the shared structure behind the scorer memo and the
// parent-configuration index cache. Not concurrency-safe — callers hold
// their own lock.
type VarLRU[V any] struct {
	cap        int // <= 0 means unbounded
	m          map[uint64][]*varLRUEntry[V]
	head, tail *varLRUEntry[V]
	size       int
}

type varLRUEntry[V any] struct {
	key        uint64
	vars       []Var
	val        V
	prev, next *varLRUEntry[V]
}

// NewVarLRU creates an LRU holding at most capacity entries; capacity
// <= 0 means unbounded.
func NewVarLRU[V any](capacity int) *VarLRU[V] {
	return &VarLRU[V]{cap: capacity, m: make(map[uint64][]*varLRUEntry[V])}
}

// Get returns the value stored for the variable list and marks it most
// recently used.
func (l *VarLRU[V]) Get(key uint64, vars []Var) (V, bool) {
	for _, e := range l.m[key] {
		if slices.Equal(e.vars, vars) {
			l.touch(e)
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// PutIfAbsent inserts the value unless the identity is already present,
// returning whichever value the cache now holds — so racing builders of
// a pure value converge on the first inserted instance. vars must be a
// list the cache may retain. Insertion evicts beyond capacity.
func (l *VarLRU[V]) PutIfAbsent(key uint64, vars []Var, v V) V {
	for _, e := range l.m[key] {
		if slices.Equal(e.vars, vars) {
			l.touch(e)
			return e.val
		}
	}
	e := &varLRUEntry[V]{key: key, vars: vars, val: v}
	l.m[key] = append(l.m[key], e)
	l.pushFront(e)
	l.size++
	for l.cap > 0 && l.size > l.cap {
		l.evict()
	}
	return v
}

// Len reports the number of entries.
func (l *VarLRU[V]) Len() int { return l.size }

func (l *VarLRU[V]) pushFront(e *varLRUEntry[V]) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *VarLRU[V]) unlink(e *varLRUEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *VarLRU[V]) touch(e *varLRUEntry[V]) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

func (l *VarLRU[V]) evict() {
	e := l.tail
	if e == nil {
		return
	}
	l.unlink(e)
	chain := l.m[e.key]
	for i, ce := range chain {
		if ce == e {
			chain = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(l.m, e.key)
	} else {
		l.m[e.key] = chain
	}
	l.size--
}

// VarsKey hashes an ordered variable list into the compact uint64 keys
// the scoring memo and index cache use (FNV-1a over attr/level words).
// Callers must verify equality on the stored vars — the cache structures
// here do — since 64-bit hashes can in principle collide.
func VarsKey(vars []Var) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range vars {
		h ^= uint64(uint32(v.Attr))
		h *= prime
		h ^= uint64(uint32(v.Level))
		h *= prime
	}
	return h
}
