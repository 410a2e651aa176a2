// Package cow provides a two-level copy-on-write map for structures
// that are published as immutable generations and then edited a little
// at a time: the query-time access-path index of an Analyzer and the
// mod-ref shape table.
//
// A Map is a frozen base shared by every generation derived from it,
// plus a small delta of the keys one generation set or deleted.
// Deriving the next generation copies only the delta, so an edit costs
// time proportional to what changed since the last fold, not to the
// size of the map. When the delta outgrows about an eighth of the base
// it is folded into a fresh base, which keeps lookups at two probes and
// amortizes the fold's copy over the edits that grew the delta.
package cow

// Map is one generation of a copy-on-write map. A generation is
// written only by the goroutine building it, before it is published or
// derived from; after that it is read-only and may be read from any
// number of goroutines, while later generations are derived from it.
type Map[K comparable, V any] struct {
	// base is shared with every generation derived from this one. It
	// is written only while delta is nil, which marks a base this
	// generation owns exclusively (one FromMap wrapped, or a fresh fold).
	base  map[K]V
	delta map[K]slot[V]
	n     int
}

// slot is one delta entry: a value, or a tombstone for a key deleted
// since the base was frozen.
type slot[V any] struct {
	v    V
	gone bool
}

// FromMap wraps m as a writable map; the Map takes ownership of m.
func FromMap[K comparable, V any](m map[K]V) *Map[K, V] {
	return &Map[K, V]{base: m, n: len(m)}
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if m.delta != nil {
		if s, ok := m.delta[k]; ok {
			return s.v, !s.gone
		}
	}
	v, ok := m.base[k]
	return v, ok
}

// Len returns the number of keys in the map.
func (m *Map[K, V]) Len() int { return m.n }

// Set stores v under k.
func (m *Map[K, V]) Set(k K, v V) {
	if _, ok := m.Get(k); !ok {
		m.n++
	}
	if m.delta == nil {
		m.base[k] = v
		return
	}
	m.delta[k] = slot[V]{v: v}
}

// Delete removes k.
func (m *Map[K, V]) Delete(k K) {
	if _, ok := m.Get(k); !ok {
		return
	}
	m.n--
	if m.delta == nil {
		delete(m.base, k)
		return
	}
	m.delta[k] = slot[V]{gone: true}
}

// Derive returns a writable next generation holding the same entries.
// It shares m's base and copies m's delta, folding both into a fresh
// base once the delta exceeds an eighth of the base. m itself is never
// written, so readers of m are unaffected.
func (m *Map[K, V]) Derive() *Map[K, V] {
	if m.delta == nil || len(m.delta) <= len(m.base)/8 {
		d := make(map[K]slot[V], len(m.delta)+8)
		for k, s := range m.delta {
			d[k] = s
		}
		return &Map[K, V]{base: m.base, delta: d, n: m.n}
	}
	base := make(map[K]V, m.n)
	m.All(func(k K, v V) bool {
		base[k] = v
		return true
	})
	return &Map[K, V]{base: base, n: m.n}
}

// All calls yield for every entry, in no particular order, until yield
// returns false.
func (m *Map[K, V]) All(yield func(K, V) bool) {
	for k, v := range m.base {
		if _, shadowed := m.delta[k]; shadowed {
			continue
		}
		if !yield(k, v) {
			return
		}
	}
	for k, s := range m.delta {
		if !s.gone && !yield(k, s.v) {
			return
		}
	}
}
