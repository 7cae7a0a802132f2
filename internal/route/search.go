package route

// search.go holds the A* search kernels: an exact-order bucket queue for
// the open list, a pooled generation-stamped search state shared by the
// dense (flat-array) and sparse (hash-map) cell-indexing modes, the
// unidirectional multi-source/multi-target kernel, and the bidirectional
// meet-in-the-middle kernel used for single-start/single-target nets.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bridge"
	"repro/internal/geom"
)

// pqItem is an A* frontier entry. f is the priority (g + heuristic), g the
// cost from the seed set, and key the cell's cellCmp rank within the
// search region (see searchState.key). The rank is invertible, so the
// cell itself is not stored, and (f, g) ties — the overwhelmingly common
// case, since costs are small integers plus multiples of the history
// weight — are broken by one integer compare instead of a three-way
// coordinate compare.
type pqItem struct {
	f, g float64
	key  int64
}

// itemLess is the frontier order: by f, then g, then the region-local
// cellCmp rank — a total order over all live and stale entries (two
// entries for the same cell always differ in g, distinct cells differ in
// key), so the pop sequence is independent of queue layout details and
// identical across runs, storage modes and schedulers.
func itemLess(a, b pqItem) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.g != b.g {
		return a.g < b.g
	}
	return a.key < b.key
}

// openList is the A* frontier: a bucket queue that pops entries in exactly
// itemLess order. Entries sharing one (f, g) pair form one bucket; a
// binary heap of bucket headers orders the queued buckets by (f, g). The
// keys of the minimum bucket are moved into a run, sorted once, and
// drained in ascending order. The order is exact for any push/pop
// sequence: a push into the bucket being drained joins the run and marks
// it unsorted, and a run whose bucket is overtaken by a smaller push is
// put back into its bucket.
//
// The kernels make it cheap. Both heuristics are consistent (Manhattan
// distance to a box or a cell) and every step costs at least 1, so each
// entry pushed after a pop is strictly greater under itemLess than the
// popped one: an equal f forces a larger g. The bucket being drained
// therefore receives no entries, and every bucket is sorted once. (Float
// rounding of f = g + h could in principle undercut the last pop by an
// ulp; the order stays exact then, and only that bucket is re-sorted.)
// Most pushes of one expansion land in the bucket of the previous push,
// which is checked first; other pushes find their bucket through a small
// open-addressing (f, g) table. Queued keys live in one arena, linked
// per bucket, so memory grows with the queued entries of one search, as
// a heap's does; ids, arena, run, header heap and table are recycled
// across searches by the searchState pool. A zero openList must be reset before
// use.
//
// f and g are never NaN or -0: seeds have g = +0 and an integer
// heuristic, steps add at least 1, and RunContext rejects a NaN,
// infinite or negative HistoryWeight.
type openList struct {
	buckets []bucket     // buckets of the current search, by id
	nb      int32        // buckets in use
	heads   []bucketHead // min-heap of queued buckets by (f, g)
	index   []int32      // (f, g) table: bucket id + 1, 0 = empty
	shift   uint         // 64 - log2(len(index))
	last    int32        // bucket of the latest push, -1 before the first
	n       int          // queued entries

	// ents is the key arena: the keys of every bucket but the one being
	// drained, linked per bucket through next. Entries moved into the run
	// are linked into the free list (free, -1 when empty) for reuse, so
	// the arena grows with the queued entries, not with all pushes.
	ents []entry
	free int32

	// run holds the keys of the bucket being drained (runID, -1 for
	// none), ascending from rpos when runSorted; run[rpos:] are queued.
	run       []int64
	rpos      int
	runID     int32
	runSorted bool
}

// entry is one queued key in the arena; next links the keys of one
// bucket (-1 ends the list).
type entry struct {
	key  int64
	next int32
}

// bucket is one (f, g) pair of the current search.
type bucket struct {
	f, g   float64
	head   int32 // first arena entry, -1 when none
	queued bool  // a header for the bucket is in heads
	slot   int32 // position in index
}

// bucketHead is a header-heap entry; f and g are copied from the bucket
// so sifts never dereference it.
type bucketHead struct {
	f, g float64
	id   int32
}

// headLess orders bucket headers by (f, g); distinct buckets never tie.
func headLess(a, b bucketHead) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.g < b.g
}

// reset empties the queue for a new search, keeping every buffer.
func (q *openList) reset() {
	for i := range q.buckets[:q.nb] {
		q.index[q.buckets[i].slot] = 0
	}
	q.nb = 0
	q.heads = q.heads[:0]
	q.last = -1
	q.n = 0
	q.ents = q.ents[:0]
	q.free = -1
	q.run = q.run[:0]
	q.rpos = 0
	q.runID = -1
}

// len returns the number of queued entries.
func (q *openList) len() int { return q.n }

// push queues it.
func (q *openList) push(it pqItem) {
	id := q.last
	if id < 0 || q.buckets[id].f != it.f || q.buckets[id].g != it.g {
		id = q.bucketFor(it.f, it.g)
		q.last = id
	}
	q.n++
	if id == q.runID {
		q.run = append(q.run, it.key)
		q.runSorted = false
		return
	}
	b := &q.buckets[id]
	q.link(b, it.key)
	if !b.queued {
		b.queued = true
		q.pushHead(bucketHead{f: it.f, g: it.g, id: id})
	}
}

// peek returns the minimum entry without removing it. The queue must be
// non-empty.
func (q *openList) peek() pqItem {
	b := &q.buckets[q.top()]
	return pqItem{f: b.f, g: b.g, key: q.run[q.rpos]}
}

// pop removes and returns the minimum entry. The queue must be non-empty.
func (q *openList) pop() pqItem {
	id := q.top()
	b := &q.buckets[id]
	it := pqItem{f: b.f, g: b.g, key: q.run[q.rpos]}
	q.rpos++
	if q.rpos == len(q.run) {
		b.queued = false
		q.runID = -1
		q.popHead()
	}
	q.n--
	return it
}

// top makes the minimum bucket the sorted run and returns its id.
func (q *openList) top() int32 {
	id := q.heads[0].id
	if id != q.runID {
		if q.runID >= 0 {
			// Overtaken by a smaller push: return the rest of the run
			// to its bucket.
			b := &q.buckets[q.runID]
			for _, k := range q.run[q.rpos:] {
				q.link(b, k)
			}
		}
		b := &q.buckets[id]
		q.run, q.rpos = q.run[:0], 0
		e := b.head
		for {
			q.run = append(q.run, q.ents[e].key)
			if q.ents[e].next < 0 {
				break
			}
			e = q.ents[e].next
		}
		q.ents[e].next = q.free
		q.free = b.head
		b.head = -1
		q.runID = id
		q.runSorted = false
	}
	if !q.runSorted {
		slices.Sort(q.run[q.rpos:])
		q.runSorted = true
	}
	return id
}

// link adds key to bucket b's arena list, reusing a free entry if any.
func (q *openList) link(b *bucket, key int64) {
	if e := q.free; e >= 0 {
		q.free = q.ents[e].next
		q.ents[e] = entry{key: key, next: b.head}
		b.head = e
		return
	}
	q.ents = append(q.ents, entry{key: key, next: b.head})
	b.head = int32(len(q.ents) - 1)
}

// hashFG mixes the bits of (f, g) into a table position: the rotate and
// fold bring the exponent and leading mantissa bits, where small
// integers and half-integers differ, down into the multiply, whose top
// bits are taken.
func hashFG(f, g float64, shift uint) int {
	x := math.Float64bits(f) ^ bits.RotateLeft64(math.Float64bits(g), 32)
	x ^= x >> 29
	return int((x * 0x9E3779B97F4A7C15) >> shift)
}

// bucketFor returns the id of the (f, g) bucket, creating it.
func (q *openList) bucketFor(f, g float64) int32 {
	if 2*(int(q.nb)+1) > len(q.index) {
		q.grow()
	}
	mask := len(q.index) - 1
	for i := hashFG(f, g, q.shift); ; i = (i + 1) & mask {
		e := q.index[i]
		if e == 0 {
			id := q.nb
			q.nb++
			if int(id) == len(q.buckets) {
				q.buckets = append(q.buckets, bucket{})
			}
			q.buckets[id] = bucket{f: f, g: g, head: -1, slot: int32(i)}
			q.index[i] = id + 1
			return id
		}
		if b := &q.buckets[e-1]; b.f == f && b.g == g {
			return e - 1
		}
	}
}

// grow doubles the (f, g) table (64 slots at first) and reinserts the
// current search's buckets.
func (q *openList) grow() {
	size := max(2*len(q.index), 64)
	q.index = make([]int32, size)
	q.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for id := range q.buckets[:q.nb] {
		b := &q.buckets[id]
		i := hashFG(b.f, b.g, q.shift)
		for q.index[i] != 0 {
			i = (i + 1) & mask
		}
		q.index[i] = int32(id) + 1
		b.slot = int32(i)
	}
}

// pushHead adds a bucket header to the min-heap.
func (q *openList) pushHead(h bucketHead) {
	q.heads = append(q.heads, h)
	hs := q.heads
	i := len(hs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !headLess(h, hs[p]) {
			break
		}
		hs[i] = hs[p]
		i = p
	}
	hs[i] = h
}

// popHead removes the minimum bucket header.
func (q *openList) popHead() {
	hs := q.heads
	last := len(hs) - 1
	h := hs[last]
	hs = hs[:last]
	q.heads = hs
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && headLess(hs[c+1], hs[c]) {
			c++
		}
		if !headLess(hs[c], h) {
			break
		}
		hs[i] = hs[c]
		i = c
	}
	if last > 0 {
		hs[i] = h
	}
}

// cellCmp orders cells by (Z, Y, X); the router's deterministic
// tie-breaker wherever an arbitrary-but-reproducible cell choice is
// needed.
func cellCmp(a, b geom.Point) int {
	return cmp.Or(cmp.Compare(a.Z, b.Z), cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
}

// boxDistance returns the Manhattan distance from c to box b — the A*
// heuristic for a multi-target search (admissible: every target lies in
// the targets' bounding box).
func boxDistance(c geom.Point, b geom.Box) float64 {
	d := 0
	if c.X < b.Min.X {
		d += b.Min.X - c.X
	} else if c.X >= b.Max.X {
		d += c.X - (b.Max.X - 1)
	}
	if c.Y < b.Min.Y {
		d += b.Min.Y - c.Y
	} else if c.Y >= b.Max.Y {
		d += c.Y - (b.Max.Y - 1)
	}
	if c.Z < b.Min.Z {
		d += b.Min.Z - c.Z
	} else if c.Z >= b.Max.Z {
		d += c.Z - (b.Max.Z - 1)
	}
	return float64(d)
}

// searchState is the pooled per-search A* state: g-scores, parent links, a
// visited stamp and a target-membership stamp per cell slot, plus the open
// list. Slots are region-local: in dense mode (region volume within
// denseSearchLimit) a cell's slot is its key and the arrays cover the
// whole region; in sparse mode slots are handed out in discovery order
// through a hash map from key to slot and the arrays grow on demand.
// Generation stamping makes reuse O(1): a search bumps cur instead of
// clearing the arrays, and entries stamped by earlier generations read as
// unseen. Both modes run the same kernel code, which is what guarantees
// the dense and sparse searches expand identical node sequences.
type searchState struct {
	dense bool
	slotM map[int64]int32 // sparse: key -> slot
	keys  []int64         // sparse: slot -> key

	// key() linearizes region cells in cellCmp (Z, Y, X) order:
	// key(c) = (c.Z-kmin.Z)·kzMul + (c.Y-kmin.Y)·kyMul + (c.X-kmin.X).
	// Identical order to cellCmp for every cell of the region, so pqItem
	// tie-breaking by key is exactly tie-breaking by cellCmp. dkey[i] is
	// the key offset of a step along geom.Dirs6[i].
	kmin         geom.Point
	kzMul, kyMul int64
	dkey         [6]int64

	g      []float64
	parent []int32
	gen    []uint32 // visited stamp: gen[i] == cur means slot i has a g-score
	tgen   []uint32 // target stamp: tgen[i] == cur means slot i is a target
	cur    uint32
	open   openList
}

// searchPool recycles searchState buffers; one state is checked out per
// in-flight frontier (bidirectional searches take two).
var searchPool = sync.Pool{New: func() any { return &searchState{} }}

// reset prepares the state for one search over region. In dense mode the
// arrays are sized to the region volume up front; in sparse mode the slot
// map is cleared and slots are allocated as cells are first touched.
func (s *searchState) reset(region geom.Box, dense bool) {
	s.dense = dense
	s.open.reset()
	s.kmin = region.Min
	s.kyMul = int64(region.Dx())
	s.kzMul = int64(region.Dy()) * s.kyMul
	for i, d := range geom.Dirs6 {
		s.dkey[i] = int64(d.DZ)*s.kzMul + int64(d.DY)*s.kyMul + int64(d.DX)
	}
	if dense {
		if v := region.Volume(); v > len(s.g) {
			s.g = make([]float64, v)
			s.parent = make([]int32, v)
			s.gen = make([]uint32, v)
			s.tgen = make([]uint32, v)
			s.cur = 0
		}
	} else {
		if s.slotM == nil {
			s.slotM = map[int64]int32{}
		} else {
			clear(s.slotM)
		}
		s.keys = s.keys[:0]
	}
	s.cur++
	if s.cur == 0 { // generation counter wrapped: invalidate everything
		for i := range s.gen {
			s.gen[i] = 0
			s.tgen[i] = 0
		}
		s.cur = 1
	}
}

// key returns c's cellCmp rank within the search region, the integer
// tie-breaker carried by pqItems.
func (s *searchState) key(c geom.Point) int64 {
	return int64(c.Z-s.kmin.Z)*s.kzMul + int64(c.Y-s.kmin.Y)*s.kyMul + int64(c.X-s.kmin.X)
}

// cellOf inverts key. The region is never empty while a search is live
// (it contains the start cell), so both multipliers are positive.
func (s *searchState) cellOf(key int64) geom.Point {
	z := key / s.kzMul
	rem := key % s.kzMul
	return geom.Pt(s.kmin.X+int(rem%s.kyMul), s.kmin.Y+int(rem/s.kyMul), s.kmin.Z+int(z))
}

// slot returns the state slot for the region cell with key k, allocating
// one in sparse mode.
func (s *searchState) slot(k int64) int32 {
	if s.dense {
		return int32(k)
	}
	if i, ok := s.slotM[k]; ok {
		return i
	}
	i := int32(len(s.keys))
	s.slotM[k] = i
	s.keys = append(s.keys, k)
	if int(i) >= len(s.g) {
		s.g = append(s.g, 0)
		s.parent = append(s.parent, 0)
		s.gen = append(s.gen, 0)
		s.tgen = append(s.tgen, 0)
	}
	return i
}

// find returns the slot for key k without allocating one; ok is false in
// sparse mode when the cell was never touched. The bidirectional kernel
// uses it to probe the opposite frontier.
func (s *searchState) find(k int64) (int32, bool) {
	if s.dense {
		return int32(k), true
	}
	i, ok := s.slotM[k]
	return i, ok
}

// cellAt returns the cell of slot i.
func (s *searchState) cellAt(i int32) geom.Point {
	if s.dense {
		return s.cellOf(int64(i))
	}
	return s.cellOf(s.keys[i])
}

// seen reports whether slot i has a g-score in this generation.
func (s *searchState) seen(i int32) bool { return s.gen[i] == s.cur }

// setG records g-score v and parent slot p (-1 marks a seed) for slot i in
// this generation.
func (s *searchState) setG(i int32, v float64, p int32) {
	s.gen[i] = s.cur
	s.g[i] = v
	s.parent[i] = p
}

// markTarget stamps slot i as a target cell for this generation.
func (s *searchState) markTarget(i int32) { s.tgen[i] = s.cur }

// isTarget reports whether slot i is a target cell in this generation.
func (s *searchState) isTarget(i int32) bool { return s.tgen[i] == s.cur }

// walk reconstructs the tree path from slot i back to its seed (parent -1)
// and appends the cells to dst in walk order (i first).
func (s *searchState) walk(i int32, dst geom.Path) geom.Path {
	for ; i >= 0; i = s.parent[i] {
		dst = append(dst, s.cellAt(i))
	}
	return dst
}

// passable reports whether net n may occupy the already-fetched cell state
// (net owner, pin owner, static flag as returned by grid.cellState).
func passable(n bridge.Net, net, pin int32, static bool) bool {
	if static {
		return false
	}
	if net >= 0 && int(net) != n.ID {
		return false // another net's committed cell
	}
	if pin >= 0 && int(pin) != n.PinA && int(pin) != n.PinB {
		return false // foreign pin access cell
	}
	return true
}

// shovable reports whether a cell that failed passable may still be
// crossed by a shove-rescue search: the only violation must be another
// net's committed cell. Statics and foreign pin cells stay impassable,
// so a failed shove search proves the net is enclosed by immovable
// geometry.
func shovable(n bridge.Net, net, pin int32, static bool) bool {
	return !static &&
		(pin < 0 || int(pin) == n.PinA || int(pin) == n.PinB) &&
		net >= 0 && int(net) != n.ID
}

// astar searches a cheapest path from any start to any target within the
// region, dispatching to the bidirectional kernel for the
// single-start/single-target case (when enabled) and the unidirectional
// kernel otherwise. Regions up to denseSearchLimit cells (all but
// degenerate whole-world rescues) index search state with flat arrays;
// larger ones fall back to a hash-map slot index. Both storage modes run
// the same kernel code and return identical paths.
func (r *router) astar(n bridge.Net, ep *netEndpoints, region geom.Box) geom.Path {
	// A region can never yield more useful expansions than it has cells.
	maxExp := r.opts.MaxExpansions
	if r.inFallback {
		// The rescue pass searches the whole world; give it more room
		// (still bounded so enclosed pins cannot wedge the router).
		maxExp *= 8
	}
	if v := region.Volume(); v < maxExp {
		maxExp = v
	}
	if r.shove {
		// Crossing penalties create cost plateaus that relax cells several
		// times each, so a volume-clamped budget is too tight for the
		// rescue search.
		maxExp *= 4
	}
	dense := region.Volume() <= denseSearchLimit
	// Out-of-region cells (friend path cells beyond the region) are
	// unusable this attempt; the kernels skip them.
	ns, start := inRegion(ep.starts, region)
	nt, target := inRegion(ep.targets, region)
	if ns == 0 || nt == 0 {
		return nil
	}
	// Shove searches always run unidirectionally: the bidirectional cost
	// model has no notion of the crossing penalty.
	if r.opts.Bidirectional && !r.shove && ns == 1 && nt == 1 {
		return r.astarBidi(n, start, target, region, dense, maxExp)
	}
	// Anchor the heuristic on the in-region targets only: out-of-region
	// friend cells are unreachable this attempt, and a larger anchor box
	// is nearer to every cell, which only weakens the bound. The filtered
	// bounding box is tighter yet still admissible.
	return r.astarUni(n, ep.starts, ep.targets, boundsIn(ep.targets, region), region, dense, maxExp)
}

// inRegion returns how many of cells lie in region and the first of them.
func inRegion(cells []geom.Point, region geom.Box) (n int, first geom.Point) {
	for _, c := range cells {
		if region.Contains(c) {
			if n == 0 {
				first = c
			}
			n++
		}
	}
	return n, first
}

// boundsIn returns the bounding box of the cells that lie in region.
func boundsIn(cells []geom.Point, region geom.Box) geom.Box {
	var b geom.Box
	for _, c := range cells {
		if region.Contains(c) {
			b = b.UnionPoint(c)
		}
	}
	return b
}

// astarUni is the unidirectional multi-source/multi-target kernel: seed
// every in-region start at g=0, pop frontier entries in itemLess order,
// and stop at the first settled target. Cells of starts and targets
// outside region are skipped. The heuristic is the Manhattan distance to
// tbox, the bounding box of the in-region target cells (admissible:
// every reachable target lies inside it; the caller keeps it tight by
// excluding out-of-region friend cells). Targets are enterable even when
// occupied (terminating on a friend path is the Fig. 19 deformation);
// every other cell must pass the occupancy/pin/static checks — unless a
// shove rescue is underway, in which case a foreign committed cell may
// be crossed at shovePenalty. Determinism: seeds are cellCmp-sorted,
// the frontier order is total, and all tie-breaks are coordinate-based.
func (r *router) astarUni(n bridge.Net, starts, targets []geom.Point, tbox geom.Box, region geom.Box, dense bool, maxExp int) geom.Path {
	s := searchPool.Get().(*searchState)
	defer searchPool.Put(s)
	s.reset(region, dense)
	for _, c := range targets {
		if region.Contains(c) {
			s.markTarget(s.slot(s.key(c)))
		}
	}
	for _, c := range starts {
		if !region.Contains(c) {
			continue
		}
		k := s.key(c)
		s.setG(s.slot(k), 0, -1)
		s.open.push(pqItem{g: 0, f: boxDistance(c, tbox), key: k})
	}
	// Fast-path toggles, constant for the whole search: a dense world grid
	// answers "is this cell free for everyone?" with one byte, and until
	// the first rip-up charges history every step costs exactly 1. A shove
	// rescue (r.shove) may cross other nets' cells at shovePenalty each.
	gr := r.grid
	fastGrid := gr.dense
	noHist := !gr.hasHist()
	shove := r.shove
	expansions := 0
	for s.open.len() > 0 {
		cur := s.open.pop()
		ci := s.slot(cur.key)
		if cur.g > s.g[ci] {
			continue // stale entry
		}
		if s.isTarget(ci) {
			return s.walk(ci, nil).Reverse()
		}
		expansions++
		if expansions > maxExp {
			return nil
		}
		if expansions%cancelCheckExpansions == 0 && r.searchCanceled() {
			return nil
		}
		cell := s.cellOf(cur.key)
		for di, d := range geom.Dirs6 {
			next := cell.Step(d)
			if !region.Contains(next) {
				continue
			}
			nk := cur.key + s.dkey[di]
			ni := s.slot(nk)
			var hist, pen float64
			if fastGrid {
				gi := gr.idx.index(next)
				// Targets are enterable even when occupied by a friend
				// path; blocked cells may still belong to this net.
				if gr.blocked[gi] != 0 && !s.isTarget(ni) {
					c := &gr.cells[gi]
					if !passable(n, c.net, c.pin, c.static) {
						if !shove || !shovable(n, c.net, c.pin, c.static) {
							continue
						}
						pen = shovePenalty
					}
				}
				if !noHist {
					hist = gr.cells[gi].hist
				}
			} else {
				net, pin, static, h := gr.cellState(next)
				// Targets are enterable even when occupied by a friend path.
				if !s.isTarget(ni) && !passable(n, net, pin, static) {
					if !shove || !shovable(n, net, pin, static) {
						continue
					}
					pen = shovePenalty
				}
				hist = h
			}
			ng := cur.g + 1 + r.opts.HistoryWeight*hist + pen
			if s.seen(ni) && ng >= s.g[ni] {
				continue
			}
			s.setG(ni, ng, ci)
			s.open.push(pqItem{g: ng, f: ng + boxDistance(next, tbox), key: nk})
		}
	}
	return nil
}

// astarBidi is the bidirectional kernel for single-start/single-target
// nets: one frontier grows from the start with the forward cost model
// (entering a cell costs 1 + HistoryWeight·hist(cell)), one from the
// target with the mirrored model (leaving toward the target charges the
// cell being left), so for any cell m the sum gf(m)+gb(m) is exactly the
// cost of the concatenated start→m→target path. Whenever either side
// relaxes a cell the other side has seen, the sum becomes a meeting
// candidate; the best candidate μ (ties broken by cellCmp on the meeting
// cell) is returned once μ ≤ max(min f of either open list), the point at
// which no better meeting can exist (both heuristics are consistent).
// Which frontier expands next is itself chosen by itemLess on the two
// queue tops (forward wins ties), so the whole search is deterministic.
// Both states index the same region, so a cell has one key in both. The
// reconstructed path is simple: a shared non-meeting cell would produce a
// strictly cheaper candidate, contradicting μ's minimality.
func (r *router) astarBidi(n bridge.Net, start, target geom.Point, region geom.Box, dense bool, maxExp int) geom.Path {
	sf := searchPool.Get().(*searchState)
	sb := searchPool.Get().(*searchState)
	defer searchPool.Put(sf)
	defer searchPool.Put(sb)
	sf.reset(region, dense)
	sb.reset(region, dense)
	sbox := geom.CellBox(start)
	tbox := geom.CellBox(target)
	sk, tk := sf.key(start), sf.key(target)
	sf.setG(sf.slot(sk), 0, -1)
	sf.open.push(pqItem{g: 0, f: boxDistance(start, tbox), key: sk})
	sb.setG(sb.slot(tk), 0, -1)
	sb.open.push(pqItem{g: 0, f: boxDistance(target, sbox), key: tk})

	mu := math.Inf(1)
	var meet geom.Point
	// consider records a meeting candidate at cell c with path cost g.
	consider := func(c geom.Point, g float64) {
		if g < mu || (g == mu && cellCmp(c, meet) < 0) {
			mu, meet = g, c
		}
	}
	// Same fast-path toggles as the unidirectional kernel.
	gr := r.grid
	fastGrid := gr.dense
	noHist := !gr.hasHist()
	expansions := 0
	for {
		fTop, bTop := pqItem{f: math.Inf(1)}, pqItem{f: math.Inf(1)}
		if sf.open.len() > 0 {
			fTop = sf.open.peek()
		}
		if sb.open.len() > 0 {
			bTop = sb.open.peek()
		}
		if mu <= max(fTop.f, bTop.f) { // includes both-lists-empty with mu still infinite
			break
		}
		// Expand the side whose top entry is smaller; forward on ties.
		forward := math.IsInf(bTop.f, 1) ||
			(!math.IsInf(fTop.f, 1) && !itemLess(bTop, fTop))
		s, o := sf, sb
		goal := tk
		if !forward {
			s, o = sb, sf
			goal = sk
		}
		cur := s.open.pop()
		ci := s.slot(cur.key)
		if cur.g > s.g[ci] {
			continue // stale entry
		}
		expansions++
		if expansions > maxExp {
			return nil
		}
		if expansions%cancelCheckExpansions == 0 && r.searchCanceled() {
			return nil
		}
		cell := s.cellOf(cur.key)
		// The backward cost model charges the cell being left (it is the
		// cell "entered" when the path is read start→target).
		var leaveCost float64
		if !forward && !noHist {
			var hist float64
			if fastGrid {
				hist = gr.cells[gr.idx.index(cell)].hist
			} else {
				_, _, _, hist = gr.cellState(cell)
			}
			leaveCost = r.opts.HistoryWeight * hist
		}
		hbox := tbox
		if !forward {
			hbox = sbox
		}
		for di, d := range geom.Dirs6 {
			next := cell.Step(d)
			if !region.Contains(next) {
				continue
			}
			nk := cur.key + s.dkey[di]
			var hist float64
			if fastGrid {
				gi := gr.idx.index(next)
				// Each frontier may enter its own goal cell
				// unconditionally, mirroring the unidirectional kernel's
				// seeded starts and enterable targets; other blocked
				// cells may still belong to this net.
				if gr.blocked[gi] != 0 && nk != goal {
					c := &gr.cells[gi]
					if !passable(n, c.net, c.pin, c.static) {
						continue
					}
				}
				if forward && !noHist {
					hist = gr.cells[gi].hist
				}
			} else {
				net, pin, static, h := gr.cellState(next)
				// Each frontier may enter its own goal cell unconditionally.
				if nk != goal && !passable(n, net, pin, static) {
					continue
				}
				hist = h
			}
			var ng float64
			if forward {
				ng = cur.g + 1 + r.opts.HistoryWeight*hist
			} else {
				ng = cur.g + 1 + leaveCost
			}
			ni := s.slot(nk)
			if s.seen(ni) && ng >= s.g[ni] {
				continue
			}
			s.setG(ni, ng, ci)
			s.open.push(pqItem{g: ng, f: ng + boxDistance(next, hbox), key: nk})
			if oi, ok := o.find(nk); ok && o.seen(oi) {
				consider(next, ng+o.g[oi])
			}
		}
	}
	if math.IsInf(mu, 1) {
		return nil
	}
	// Forward half start→meet, then the backward tree's meet→target tail.
	mk := sf.key(meet)
	mf, _ := sf.find(mk)
	path := sf.walk(mf, nil).Reverse()
	mb, _ := sb.find(mk)
	return sb.walk(sb.parent[mb], path)
}
