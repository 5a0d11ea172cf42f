// Package mem stubs ibr/internal/mem for the analyzer golden tests. The
// ibrlint analyzers match protocol calls by method name plus import-path
// suffix, so only the signatures matter here; the real Pool is generic, the
// stub is not.
package mem

// Handle indexes a pool slot.
type Handle uint64

// Nil is the null handle.
const Nil Handle = 0

func (h Handle) IsNil() bool        { return h == 0 }
func (h Handle) ClearMarks() Handle { return h }
func (h Handle) Mark0() bool        { return false }

// Node is the pooled element.
type Node struct {
	Key, Val uint64
}

// Pool mimics mem.Pool[T].
type Pool struct{ nodes []Node }

func (p *Pool) Get(h Handle) *Node                       { return &p.nodes[h] }
func (p *Pool) Free(tid int, h Handle)                   {}
func (p *Pool) FreeBatches(tid int, batches ...[]Handle) {}
func (p *Pool) Alloc(tid int) (Handle, bool)             { return 0, false }
func (p *Pool) SetBirth(h Handle, e uint64)              {}
