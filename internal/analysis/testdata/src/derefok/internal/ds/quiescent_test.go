package ds

import "stub/internal/mem"

// Test files are exempt: tests deliberately stage quiescent inspections of
// pool memory and raw scheme state.
func QuiescentPeek(q *Q, p *mem.Pool) uint64 {
	q.w.Scheme().StartOp(0)
	defer q.w.Scheme().EndOp(0)
	return p.Get(q.head.Raw()).Val
}
