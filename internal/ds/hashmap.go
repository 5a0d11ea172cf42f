package ds

import (
	"fmt"
	"math/bits"
	"sort"

	"ibr/internal/core"
)

// HashMap is Michael's lock-free hash map (§5 of the paper): a fixed array
// of buckets, each an independent Harris–Michael ordered list. It is the
// paper's high-throughput, short-traversal workload — the opposite extreme
// from the single list.
type HashMap struct {
	listCore
	buckets []core.Ptr
	shift   uint
}

// NewHashMap builds a hash map with cfg.Buckets buckets (default
// DefaultBuckets; rounded up to a power of two).
func NewHashMap(cfg Config) (*HashMap, error) {
	n := cfg.Buckets
	if n == 0 {
		n = DefaultBuckets
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	if n < 1 {
		return nil, fmt.Errorf("ds: invalid bucket count %d", cfg.Buckets)
	}
	b, err := newBase("hashmap", cfg, listPoison)
	if err != nil {
		return nil, err
	}
	return &HashMap{
		listCore: listCore{b},
		buckets:  make([]core.Ptr, n),
		shift:    uint(64 - bits.Len(uint(n-1))),
	}, nil
}

// bucket hashes key to its bucket head with a Fibonacci multiplicative
// hash, which spreads the benchmark's small dense key range well.
func (m *HashMap) bucket(key uint64) *core.Ptr {
	return &m.buckets[(key*0x9E3779B97F4A7C15)>>m.shift]
}

// Insert adds key→val; false if present.
func (m *HashMap) Insert(tid int, key, val uint64) bool {
	return m.insert(tid, m.bucket(key), key, val)
}

// Remove deletes key; false if absent.
func (m *HashMap) Remove(tid int, key uint64) bool {
	return m.remove(tid, m.bucket(key), key)
}

// Get returns the value bound to key.
func (m *HashMap) Get(tid int, key uint64) (uint64, bool) {
	return m.get(tid, m.bucket(key), key)
}

// Fill bulk-loads pairs (single-threaded).
func (m *HashMap) Fill(pairs []KV) {
	perBucket := make(map[*core.Ptr][]KV)
	for _, kv := range pairs {
		b := m.bucket(kv.Key)
		perBucket[b] = append(perBucket[b], kv)
	}
	for b, kvs := range perBucket {
		sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
		dedup := kvs[:0]
		for i, kv := range kvs {
			if i == 0 || kv.Key != kvs[i-1].Key {
				dedup = append(dedup, kv)
			}
		}
		m.fill(b, dedup)
	}
}

// Keys returns the ascending key set (quiescence only).
func (m *HashMap) Keys() []uint64 {
	var out []uint64
	for i := range m.buckets {
		out = m.keys(&m.buckets[i], out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
