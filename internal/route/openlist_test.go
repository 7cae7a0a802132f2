package route

import (
	"math/rand"
	"testing"
)

// heapPQ is the 4-ary comparison min-heap the router's open list used to
// be, kept as the oracle for openList: both must pop the identical
// sequence, since itemLess is a total order over distinct entries.
type heapPQ []pqItem

func (q *heapPQ) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !itemLess(it, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

func (q *heapPQ) pop() pqItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	it := h[last]
	h = h[:last]
	*q = h
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		end := min(c+4, last)
		m := c
		for j := c + 1; j < end; j++ {
			if itemLess(h[j], h[m]) {
				m = j
			}
		}
		if !itemLess(h[m], it) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if last > 0 {
		h[i] = it
	}
	return top
}

// queuePair drives an openList and the heap oracle in lockstep and fails
// the test on the first divergence of len, peek or pop.
type queuePair struct {
	t      *testing.T
	q      openList
	oracle heapPQ
	pops   int
}

func newQueuePair(t *testing.T) *queuePair {
	p := &queuePair{t: t}
	p.q.reset()
	return p
}

func (p *queuePair) push(it pqItem) {
	p.q.push(it)
	p.oracle.push(it)
}

func (p *queuePair) pop() pqItem {
	p.t.Helper()
	if p.q.len() != len(p.oracle) {
		p.t.Fatalf("pop %d: len %d, oracle %d", p.pops, p.q.len(), len(p.oracle))
	}
	if got, want := p.q.peek(), p.oracle[0]; got != want {
		p.t.Fatalf("pop %d: peek %+v, oracle top %+v", p.pops, got, want)
	}
	got, want := p.q.pop(), p.oracle.pop()
	if got != want {
		p.t.Fatalf("pop %d: got %+v, oracle %+v", p.pops, got, want)
	}
	p.pops++
	return got
}

// drain pops both queues empty.
func (p *queuePair) drain() {
	p.t.Helper()
	for len(p.oracle) > 0 {
		p.pop()
	}
	if p.q.len() != 0 {
		p.t.Fatalf("queue holds %d entries after the oracle drained", p.q.len())
	}
}

// reset empties both queues, as a pooled searchState's reset does.
func (p *queuePair) reset() {
	p.q.reset()
	p.oracle = p.oracle[:0]
}

// TestOpenListMatchesHeap checks the bucket queue against the 4-ary heap
// oracle on randomized monotone streams shaped like the A* kernels':
// every push after a pop steps from the popped entry with a cost of 1
// plus a history charge (multiples of a fractional weight, so costs leave
// the half-integer grid) or plus shovePenalty, under a consistent
// heuristic that changes by at most 1 per step. Keys come from a small
// region, so buckets hold many keys and entries go stale; some streams
// reset the queue mid-search, as pooled-state reuse does. The generator
// recomputes h as f - g, and its rounding sometimes undercuts the last
// pop by an ulp, which also exercises handing a run back to its bucket.
func TestOpenListMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		p := newQueuePair(t)
		weight := []float64{0, 0.5, 0.7, 1.5, 0.1}[trial%5]
		keys := int64(1 + rng.Intn(200))
		searches := 1 + rng.Intn(3)
		for search := 0; search < searches; search++ {
			for s := 0; s < 1+rng.Intn(4); s++ {
				p.push(pqItem{f: float64(rng.Intn(20)), key: rng.Int63n(keys)})
			}
			steps := rng.Intn(3000)
			for step := 0; step < steps && p.q.len() > 0; step++ {
				cur := p.pop()
				h := cur.f - cur.g
				for n := rng.Intn(7); n > 0; n-- {
					g := cur.g + 1 + weight*float64(rng.Intn(4))
					if rng.Intn(40) == 0 {
						g += shovePenalty
					}
					nh := h + float64(rng.Intn(3)-1)
					if nh < 0 {
						nh = 0
					}
					p.push(pqItem{f: g + nh, g: g, key: rng.Int63n(keys)})
				}
			}
			if rng.Intn(2) == 0 {
				p.drain()
			}
			p.reset()
		}
	}
}

// TestOpenListArbitraryStreams checks that the order stays exact when the
// monotone property does not hold: pushes below the last pop, into the
// bucket being drained and into drained buckets, interleaved with pops,
// peeks and resets. The kernels never produce such streams, but the
// queue must not depend on it for correctness.
func TestOpenListArbitraryStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		p := newQueuePair(t)
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(100); {
			case r < 55:
				p.push(pqItem{
					f:   float64(rng.Intn(8)) * 0.5,
					g:   float64(rng.Intn(6)) * 0.25,
					key: rng.Int63n(16),
				})
			case r < 99:
				if p.q.len() > 0 {
					p.pop()
				}
			default:
				p.reset()
			}
		}
		p.drain()
	}
}

// TestOpenListSingleBucket pours thousands of keys into one (f, g) bucket
// in random order, then more into a bucket above it mid-drain, and pins
// that they pop in ascending key order, bucket by bucket.
func TestOpenListSingleBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := newQueuePair(t)
	for _, k := range rng.Perm(5000) {
		p.push(pqItem{f: 12, g: 4, key: int64(k)})
	}
	for i := 0; i < 2500; i++ {
		p.pop()
	}
	for _, k := range rng.Perm(3000) {
		p.push(pqItem{f: 12, g: 5, key: int64(k)})
	}
	p.drain()
}
