// Package place implements the paper's time-ordering-aware 2.5D placement
// (Section III-C2): super-modules are distributed over stacked tiers, each
// tier is packed by a B*-tree, and a simulated-annealing engine perturbs
// the 2.5D forest with intra-/inter-tree node moves and swaps while
// minimizing
//
//	Φ = α·V/Vnorm + β·L/Lnorm + γ·(R−R*)²            (Eq. 7)
//
// with α=0.5, β=0.5, γ=0.25 and the desired aspect ratio R* = 1:2
// (width:height). Module rotation is disallowed (it would break the
// internal time ordering of super-modules), every block is expanded by a
// routing margin, and the time-dependent super-modules of each qubit's TSL
// are resized to a common footprint and reassigned to the x-sorted
// positions after every perturbation so T-gate measurements stay in
// program order along the time axis.
//
// For efficiency the engine packs only the tiers touched by a
// perturbation and keeps per-tier extents cached. The move loop allocates
// nothing once warm: a move is a plain value, swaps are undone by swapping
// back, and a tree move first copies the trees it touches into per-tier
// spare trees owned by the engine, so a rejected move is undone by
// swapping the spare and live pointers. Saved extents and the
// wirelength cache below are engine-owned and reused by every move. Only
// best-forest snapshots are fresh clones, because other chains may read
// them.
//
// A move is scored by the work it touched, not by a full re-evaluation.
// The engine caches every super's raw (pre-reallocation) and final origin,
// every net's length and their total L. It keeps a super → incident-nets
// adjacency, which leaves out the nets inside one super because their
// length never changes, and a flat TSL table (qubit order, super → TSL
// index) that holds each TSL's raw origins in sorted order. Packing a
// tier, undoing a move and restoring the best forest mark tiers dirty;
// cost() rescans only the blocks of dirty tiers, moves each changed raw
// origin to its sorted place in its TSL, reassigns only the TSLs with a
// changed member, and re-measures each net incident to a super whose final
// origin changed once, using an epoch stamp. The cache reads block X/Y
// exactly as a full rescan would, including the coordinates a rejected
// move's repack leaves behind, so it mirrors the full evaluation move for
// move. L is an integer, so the running total equals the full sum
// (wireLength) exactly and Φ keeps its bits. Sorted order is unique
// because equal keys are equal points, and reallocating TSLs one at a time
// equals the whole-map reallocation because TSLs are disjoint.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/bridge"
	"repro/internal/bstar"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/geom"
)

// cancelCheckInterval bounds how many SA moves may elapse between context
// checks: a deadline aborts the annealing loop within this many moves.
const cancelCheckInterval = 64

// DefaultTierPitch is the default z distance between consecutive tier
// bases: two cells of module body plus one shared inter-tier routing plane
// (the top pins of tier t and the bottom pins of tier t+1 meet in the same
// gap plane). Congested netlists (e.g. unbridged ablations) can raise
// Options.TierPitch to 4 for a dedicated routing plane per tier face.
const DefaultTierPitch = 3

// Options configures the SA engine.
type Options struct {
	// Tiers fixes the tier count; 0 derives it from the total block area
	// so the packed aspect ratio can approach R*.
	Tiers int
	// Iterations is the total number of SA moves; 0 derives a budget of
	// 200 moves per block (the paper runs 2000-3000 outer iterations).
	Iterations int
	// Seed drives the SA's PRNG.
	Seed int64
	// Alpha, Beta, Gamma weight volume, wirelength and aspect ratio.
	Alpha, Beta, Gamma float64
	// AspectTarget is R* (width:height); the paper uses 1:2 = 0.5.
	AspectTarget float64
	// Margin expands every block on each side to preserve routing space.
	Margin int
	// InitialTemp and FinalTemp bound the geometric cooling schedule.
	InitialTemp, FinalTemp float64
	// TierPitch overrides the tier z spacing (0 = DefaultTierPitch).
	TierPitch int
	// Chains runs that many cooperating SA chains concurrently with
	// deterministic per-chain seeds derived from Seed and periodic
	// best-cost exchange at temperature milestones; the lowest-cost chain
	// wins, ties broken by the lowest chain index. 0 derives
	// min(GOMAXPROCS, 4); 1 is byte-identical to the sequential placer.
	// For a fixed (Seed, Chains) pair the result is bit-identical across
	// runs.
	Chains int
}

// DefaultOptions returns the paper's parameterization.
func DefaultOptions() Options {
	return Options{
		Alpha:        0.5,
		Beta:         0.5,
		Gamma:        0.25,
		AspectTarget: 0.5,
		Margin:       1,
		InitialTemp:  0.05,
		FinalTemp:    1e-5,
	}
}

// Placement is the SA result.
type Placement struct {
	Clust *cluster.Clustering
	Nets  []bridge.Net
	// Pos is each super-module's absolute body origin (x=time, y=width,
	// z=height).
	Pos []geom.Point
	// TierOf is each super-module's tier.
	TierOf []int
	// Tiers is the tier count used.
	Tiers int
	// WireLength is the final total Manhattan wirelength estimate.
	WireLength int
	// Cost is the final Φ value.
	Cost float64
	// Moves is the number of SA moves performed.
	Moves int
}

// Run places the clustering's super-modules, annealing Chains cooperating
// chains (see Options.Chains) and returning the best.
func Run(cl *cluster.Clustering, nets []bridge.Net, opts Options) (*Placement, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; RunContext is the threaded variant
	return RunContext(context.Background(), cl, nets, opts)
}

// RunContext is Run with cooperative cancellation: the SA loop checks ctx
// every cancelCheckInterval moves and aborts with an error wrapping
// faults.ErrCanceled when the deadline passes or the context is canceled.
func RunContext(ctx context.Context, cl *cluster.Clustering, nets []bridge.Net, opts Options) (*Placement, error) {
	if len(cl.Supers) == 0 {
		return nil, fmt.Errorf("place: %w: nothing to place", faults.ErrEmpty)
	}
	if err := faults.Canceled(ctx); err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	return runChains(ctx, cl, nets, opts, opts.EffectiveChains())
}

// runOnce anneals a single sequential chain (the pre-multi-chain code
// path; Chains=1 reduces to exactly this).
func runOnce(ctx context.Context, cl *cluster.Clustering, nets []bridge.Net, opts Options) (*Placement, error) {
	e, err := newEngine(cl, nets, opts)
	if err != nil {
		return nil, err
	}
	if err := e.anneal(ctx, nil, 0); err != nil {
		return nil, err
	}
	return e.placement(), nil
}

// engine is the SA state.
type engine struct {
	cl   *cluster.Clustering
	nets []bridge.Net
	opts Options
	rng  *rand.Rand

	sizes  []geom.Point
	blocks []*bstar.Block
	trees  []*bstar.Tree
	tierOf []int

	// Cached per-tier pack extents; dirty tiers are repacked lazily.
	tierW, tierH []int

	// spare holds one engine-private tree per tier. A tree move first
	// copies the trees it touches into their spares and a rejected move is
	// undone by swapping the pointers back. Spares are never published to
	// snapshots or the exchanger.
	spare []*bstar.Tree
	// Scratch reused by every move: saved tier extents.
	savedW, savedH []int

	// Incremental wirelength cache (see the package doc). raw and pos are
	// each super's origin before and after TSL reallocation as of the last
	// refresh; netLen is each net's length and wl their sum.
	raw, pos []geom.Point
	netLen   []int
	wl       int
	// netsOf lists each super's incident nets: netsOf[netStart[s]:netStart[s+1]].
	netStart, netsOf []int
	// tslMembers holds each TSL of two or more supers in Seq order,
	// tslMembers[tslStart[k]:tslStart[k+1]], in qubit order; tslOf maps a
	// super to its TSL index, or -1. tslSorted holds, at the same indices,
	// each TSL's raw origins kept sorted by tslLess.
	tslStart, tslMembers, tslOf []int
	tslSorted                   []geom.Point
	// Dirty tiers awaiting a rescan, and per-refresh scratch. An epoch
	// stamp marks the TSLs and nets already queued by the current refresh.
	tierDirty          []bool
	dirtyTiers         []int
	epoch              int
	tslStamp, netStamp []int
	dirtyTSLs, touched []int
	scan               []int

	// pinSuper/pinLocal approximate each net pin by its module center
	// within its super-module.
	pinSuper map[int]int
	pinLocal map[int]geom.Point
	// netList is the dense view of nets.
	netList []netRef

	pitch        int
	vnorm, lnorm float64
	moves        int

	bestTrees  []*bstar.Tree
	bestTierOf []int
	bestCost   float64
}

// netRef is the dense view of one net: its pins' supers, and the offset
// from pin B to pin A when both supers sit at the same origin, so the net's
// length is |pos[sa] + off − pos[sb]|₁.
type netRef struct {
	sa, sb int
	off    geom.Point
}

// EffectiveIterations returns the SA move budget Run will use for n blocks:
// the configured budget, or the automatic 200-moves-per-block rule when
// Iterations is 0. Retry escalation uses it to grow the budget from the
// auto-derived baseline.
func (o Options) EffectiveIterations(n int) int {
	if o.Iterations > 0 {
		return o.Iterations
	}
	return 200 * n
}

func newEngine(cl *cluster.Clustering, nets []bridge.Net, opts Options) (*engine, error) {
	if opts.Iterations < 0 {
		return nil, fmt.Errorf("place: negative iterations")
	}
	opts.Iterations = opts.EffectiveIterations(len(cl.Supers))
	if opts.InitialTemp <= 0 {
		opts.InitialTemp = 0.05
	}
	if opts.FinalTemp <= 0 || opts.FinalTemp >= opts.InitialTemp {
		opts.FinalTemp = opts.InitialTemp / 5000
	}
	pitch := opts.TierPitch
	if pitch <= 0 {
		pitch = DefaultTierPitch
	}
	e := &engine{
		cl:       cl,
		nets:     nets,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		pinSuper: map[int]int{},
		pinLocal: map[int]geom.Point{},
		pitch:    pitch,
	}
	e.buildTSLTable()
	e.resizeTSLs()
	e.buildBlocks()
	if err := e.assignTiers(); err != nil {
		return nil, err
	}
	e.buildPinMap()
	e.buildCache()
	v, _, _ := e.evaluateRaw()
	e.vnorm = math.Max(1, float64(v))
	e.lnorm = math.Max(1, float64(wireLength(e.netList, e.pos)))
	return e, nil
}

// buildTSLTable flattens the clustering's TSLs of two or more supers into
// the engine's table, in qubit order, so no move ranges over the map.
func (e *engine) buildTSLTable() {
	e.tslOf = make([]int, len(e.cl.Supers))
	for i := range e.tslOf {
		e.tslOf[i] = -1
	}
	qubits := make([]int, 0, len(e.cl.TSLs))
	for q := range e.cl.TSLs {
		qubits = append(qubits, q)
	}
	slices.Sort(qubits)
	e.tslStart = []int{0}
	for _, q := range qubits {
		tsl := e.cl.TSLs[q]
		if len(tsl) < 2 {
			continue
		}
		for _, id := range tsl {
			e.tslOf[id] = len(e.tslStart) - 1
		}
		e.tslMembers = append(e.tslMembers, tsl...)
		e.tslStart = append(e.tslStart, len(e.tslMembers))
	}
}

// tsl returns the supers of TSL k in Seq order.
func (e *engine) tsl(k int) []int { return e.tslMembers[e.tslStart[k]:e.tslStart[k+1]] }

// resizeTSLs grows every time-dependent super-module in a TSL to the
// common maximum footprint so post-perturbation reallocation is
// position-neutral (Section III-C2).
func (e *engine) resizeTSLs() {
	e.sizes = make([]geom.Point, len(e.cl.Supers))
	for i, s := range e.cl.Supers {
		e.sizes[i] = s.Size
	}
	for k := range len(e.tslStart) - 1 {
		var m geom.Point
		for _, id := range e.tsl(k) {
			m = geom.MaxPoint(m, e.sizes[id])
		}
		for _, id := range e.tsl(k) {
			e.sizes[id] = m
		}
	}
}

func (e *engine) buildBlocks() {
	e.blocks = make([]*bstar.Block, len(e.cl.Supers))
	for i := range e.cl.Supers {
		e.blocks[i] = &bstar.Block{
			W: e.sizes[i].X + 2*e.opts.Margin,
			H: e.sizes[i].Y + 2*e.opts.Margin,
		}
	}
}

// assignTiers distributes supers over the derived tier count, balancing
// area, and builds one shelf-shaped B*-tree per tier (rows of roughly the
// tier's target width, which gives the SA a compact warm start).
func (e *engine) assignTiers() error {
	area := 0
	for _, b := range e.blocks {
		area += b.W * b.H
	}
	n := e.opts.Tiers
	if n <= 0 {
		// Aiming for W:H ≈ R* with H = pitch·T and square tiers:
		// T ≈ (area·R*²/pitch²)^(1/3).
		r := e.opts.AspectTarget
		if r <= 0 {
			r = 0.5
		}
		t := math.Cbrt(float64(area) * r * r / float64(e.pitch*e.pitch))
		n = int(math.Round(t))
		if n < 1 {
			n = 1
		}
		if n > len(e.blocks) {
			n = len(e.blocks)
		}
	}
	// Big blocks first, round-robin: balances tier areas.
	order := make([]int, len(e.blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := e.blocks[order[i]], e.blocks[order[j]]
		return a.W*a.H > b.W*b.H
	})
	e.tierOf = make([]int, len(e.blocks))
	members := make([][]int, n)
	for k, b := range order {
		t := k % n
		e.tierOf[b] = t
		members[t] = append(members[t], b)
	}
	targetW := int(math.Sqrt(float64(area)/float64(n))) + 1
	e.trees = make([]*bstar.Tree, n)
	for t := range e.trees {
		tr, err := e.shelfTree(members[t], targetW)
		if err != nil {
			return fmt.Errorf("place: tier %d: %w: %w", t, faults.ErrInvariant, err)
		}
		e.trees[t] = tr
	}
	e.tierW = make([]int, n)
	e.tierH = make([]int, n)
	e.tierDirty = make([]bool, n)
	e.dirtyTiers = make([]int, 0, n)
	e.spare = make([]*bstar.Tree, n)
	for t := range e.trees {
		e.repack(t)
		e.spare[t] = bstar.NewTree(e.blocks, nil)
	}
	return nil
}

// shelfTree builds a B*-tree whose packing approximates row-major shelves
// of the target width: rows are chains of left children; each new row
// hangs as the right child of the previous row's first block. Insert
// failures (impossible on a fresh tree, but guarded) are returned, not
// panicked.
func (e *engine) shelfTree(members []int, targetW int) (*bstar.Tree, error) {
	tr := bstar.NewTree(e.blocks, nil)
	if len(members) == 0 {
		return tr, nil
	}
	if err := tr.Insert(members[0], -1, true); err != nil {
		return nil, err
	}
	rowStartNode := 0
	prevNode := 0
	rowWidth := e.blocks[members[0]].W
	for _, b := range members[1:] {
		w := e.blocks[b].W
		if rowWidth+w > targetW {
			// New row above the current row's first block.
			if err := tr.Insert(b, rowStartNode, false); err != nil {
				return nil, err
			}
			rowStartNode = tr.NodeOfLastInsert()
			prevNode = rowStartNode
			rowWidth = w
		} else {
			if err := tr.Insert(b, prevNode, true); err != nil {
				return nil, err
			}
			prevNode = tr.NodeOfLastInsert()
			rowWidth += w
		}
	}
	return tr, nil
}

func (e *engine) buildPinMap() {
	for _, n := range e.nets {
		for _, p := range []int{n.PinA, n.PinB} {
			if _, ok := e.pinSuper[p]; ok {
				continue
			}
			pin := e.cl.NL.Pins[p]
			m := e.cl.NL.Segments[pin.Segment].Module
			sid := e.cl.OfModule[m]
			e.pinSuper[p] = sid
			s := e.cl.Supers[sid]
			for i, mm := range s.Members {
				if mm == m {
					sz := cluster.ModuleSize(e.cl.NL, m)
					e.pinLocal[p] = s.Offsets[i].Add(geom.Pt(sz.X/2, sz.Y/2, sz.Z/2))
					break
				}
			}
		}
	}
	e.netList = make([]netRef, len(e.nets))
	for i, n := range e.nets {
		e.netList[i] = netRef{
			sa:  e.pinSuper[n.PinA],
			sb:  e.pinSuper[n.PinB],
			off: e.pinLocal[n.PinA].Sub(e.pinLocal[n.PinB]),
		}
	}
}

// buildCache sizes the incremental wirelength cache and fills it from the
// initial packing. The zero origins it starts from (raw, final and sorted
// alike) are never real, since tier bases sit at z ≥ 1, and assignTiers
// left every tier dirty, so the first refresh places every super and
// measures every net that spans two supers.
//
// A net inside one super (about half of them on 4gt4 and 4gt10)
// keeps its length wherever the super sits, so it is measured here once
// and left out of the adjacency.
func (e *engine) buildCache() {
	n := len(e.cl.Supers)
	e.raw = make([]geom.Point, n)
	e.pos = make([]geom.Point, n)
	e.netLen = make([]int, len(e.netList))
	e.netStart = make([]int, n+1)
	for i, r := range e.netList {
		if r.sa == r.sb {
			e.netLen[i] = r.length(e.pos)
			e.wl += e.netLen[i]
			continue
		}
		e.netStart[r.sa+1]++
		e.netStart[r.sb+1]++
	}
	for s := range n {
		e.netStart[s+1] += e.netStart[s]
	}
	e.netsOf = make([]int, e.netStart[n])
	next := slices.Clone(e.netStart[:n])
	for i, r := range e.netList {
		if r.sa == r.sb {
			continue
		}
		e.netsOf[next[r.sa]] = i
		next[r.sa]++
		e.netsOf[next[r.sb]] = i
		next[r.sb]++
	}
	ntsl := len(e.tslStart) - 1
	e.netStamp = make([]int, len(e.netList))
	e.tslStamp = make([]int, ntsl)
	e.touched = make([]int, 0, len(e.netList))
	e.dirtyTSLs = make([]int, 0, ntsl)
	e.scan = make([]int, 0, n)
	e.tslSorted = make([]geom.Point, len(e.tslMembers))
	e.refresh()
}

// repack refreshes the cached extents of tier t and marks it dirty.
func (e *engine) repack(t int) {
	e.tierW[t], e.tierH[t] = e.trees[t].Pack()
	e.markDirty(t)
}

// markDirty queues tier t for the next refresh.
func (e *engine) markDirty(t int) {
	if !e.tierDirty[t] {
		e.tierDirty[t] = true
		e.dirtyTiers = append(e.dirtyTiers, t)
	}
}

// refresh brings the cached origins, net lengths and wl up to date with the
// block coordinates of the dirty tiers: it rescans their blocks, keeps the
// TSLs' sorted origins current, reassigns the TSLs with a moved member and
// re-measures the nets of every super whose final origin changed.
func (e *engine) refresh() {
	e.epoch++
	for _, t := range e.dirtyTiers {
		e.tierDirty[t] = false
		e.scan = e.trees[t].AppendBlocks(e.scan[:0])
		for _, i := range e.scan {
			b := e.blocks[i]
			p := geom.Pt(b.X+e.opts.Margin, b.Y+e.opts.Margin, 1+e.tierOf[i]*e.pitch)
			old := e.raw[i]
			if p == old {
				continue
			}
			e.raw[i] = p
			k := e.tslOf[i]
			if k < 0 {
				e.setPos(i, p)
				continue
			}
			e.resortTSL(k, old, p)
			if e.tslStamp[k] != e.epoch {
				e.tslStamp[k] = e.epoch
				e.dirtyTSLs = append(e.dirtyTSLs, k)
			}
		}
	}
	e.dirtyTiers = e.dirtyTiers[:0]
	for _, k := range e.dirtyTSLs {
		e.reallocateTSL(k)
	}
	e.dirtyTSLs = e.dirtyTSLs[:0]
	for _, n := range e.touched {
		l := e.netList[n].length(e.pos)
		e.wl += l - e.netLen[n]
		e.netLen[n] = l
	}
	e.touched = e.touched[:0]
}

// setPos moves super s's final origin to p and queues its nets for
// re-measurement if it changed.
func (e *engine) setPos(s int, p geom.Point) {
	if e.pos[s] == p {
		return
	}
	e.pos[s] = p
	for _, n := range e.netsOf[e.netStart[s]:e.netStart[s+1]] {
		if e.netStamp[n] != e.epoch {
			e.netStamp[n] = e.epoch
			e.touched = append(e.touched, n)
		}
	}
}

// tslLess orders TSL origins by x, then tier, then y. Equal keys are equal
// points, so a TSL's sorted origins are unique.
func tslLess(a, b geom.Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	return a.Y < b.Y
}

// resortTSL replaces one copy of a member's old raw origin by its new one
// in TSL k's sorted origins and moves it to its sorted place.
func (e *engine) resortTSL(k int, old, p geom.Point) {
	s := e.tslSorted[e.tslStart[k]:e.tslStart[k+1]]
	i := slices.Index(s, old)
	for ; i > 0 && tslLess(p, s[i-1]); i-- {
		s[i] = s[i-1]
	}
	for ; i+1 < len(s) && tslLess(s[i+1], p); i++ {
		s[i] = s[i+1]
	}
	s[i] = p
}

// reallocateTSL restores the T ordering of TSL k: its equally-sized supers
// are reassigned to their sorted raw origins in Seq order.
func (e *engine) reallocateTSL(k int) {
	sorted := e.tslSorted[e.tslStart[k]:e.tslStart[k+1]]
	for i, id := range e.tsl(k) {
		e.setPos(id, sorted[i])
	}
}

// length is the Manhattan distance between the net's two pins at the
// given super origins.
func (n netRef) length(pos []geom.Point) int {
	return pos[n.sa].Add(n.off).Manhattan(pos[n.sb])
}

// wireLength is the full sum of the net lengths at the given super origins.
func wireLength(nets []netRef, pos []geom.Point) int {
	l := 0
	for _, n := range nets {
		l += n.length(pos)
	}
	return l
}

// evaluateRaw returns (volume, aspect ratio, wirelength) from the cached
// tier packings, refreshing the wirelength cache first.
func (e *engine) evaluateRaw() (v int, r float64, l int) {
	depth, width := 0, 0
	for t := range e.trees {
		if e.tierW[t] > depth {
			depth = e.tierW[t]
		}
		if e.tierH[t] > width {
			width = e.tierH[t]
		}
	}
	height := len(e.trees) * e.pitch
	v = depth * width * height
	r = float64(width) / float64(height)
	e.refresh()
	return v, r, e.wl
}

func (e *engine) cost() float64 {
	v, r, l := e.evaluateRaw()
	dr := r - e.opts.AspectTarget
	return e.opts.Alpha*float64(v)/e.vnorm +
		e.opts.Beta*float64(l)/e.lnorm +
		e.opts.Gamma*dr*dr
}

// moveKind names the four perturbations of Section III-C2.
type moveKind int

const (
	intraSwap moveKind = iota
	interSwap
	intraMove
	interMove
)

// move describes one applied perturbation: enough to repack the touched
// tiers and to undo it without allocating.
type move struct {
	kind   moveKind
	t1, t2 int // touched tiers; t2 is -1 for intra-tree moves
	a, b   int // swapped nodes (swaps only)
	blk    int // block moved by an inter-tree move
}

// perturb applies one random perturbation; ok is false when the draw was a
// no-op.
func (e *engine) perturb() (mv move, ok bool) {
	switch e.rng.Intn(4) {
	case 0: // intra-tree swap
		t := e.rng.Intn(len(e.trees))
		tr := e.trees[t]
		if tr.Len() < 2 {
			return move{}, false
		}
		a, b := tr.RandomNode(e.rng), tr.RandomNode(e.rng)
		if a == b {
			return move{}, false
		}
		tr.SwapBlocks(a, b)
		return move{kind: intraSwap, t1: t, t2: -1, a: a, b: b}, true
	case 1: // inter-tree swap
		if len(e.trees) < 2 {
			return move{}, false
		}
		t1, t2 := e.rng.Intn(len(e.trees)), e.rng.Intn(len(e.trees))
		if t1 == t2 || e.trees[t1].Len() == 0 || e.trees[t2].Len() == 0 {
			return move{}, false
		}
		a, b := e.trees[t1].RandomNode(e.rng), e.trees[t2].RandomNode(e.rng)
		ba, bb := e.trees[t1].BlockAt(a), e.trees[t2].BlockAt(b)
		bstar.SwapBlocksAcross(e.trees[t1], a, e.trees[t2], b)
		e.tierOf[ba], e.tierOf[bb] = t2, t1
		return move{kind: interSwap, t1: t1, t2: t2, a: a, b: b}, true
	case 2: // intra-tree move (undone from the tier's spare)
		t := e.rng.Intn(len(e.trees))
		tr := e.trees[t]
		if tr.Len() < 2 {
			return move{}, false
		}
		e.spare[t].CopyFrom(tr)
		n := tr.RandomNode(e.rng)
		b := tr.Remove(n)
		p := tr.RandomNode(e.rng)
		if err := tr.Insert(b, p, e.rng.Intn(2) == 0); err != nil {
			e.swapSpares(t, -1)
			return move{}, false
		}
		return move{kind: intraMove, t1: t, t2: -1}, true
	default: // inter-tree move
		if len(e.trees) < 2 {
			return move{}, false
		}
		t1, t2 := e.rng.Intn(len(e.trees)), e.rng.Intn(len(e.trees))
		if t1 == t2 || e.trees[t1].Len() < 2 {
			return move{}, false
		}
		e.spare[t1].CopyFrom(e.trees[t1])
		e.spare[t2].CopyFrom(e.trees[t2])
		n := e.trees[t1].RandomNode(e.rng)
		b := e.trees[t1].Remove(n)
		var err error
		if e.trees[t2].Len() == 0 {
			err = e.trees[t2].Insert(b, -1, true)
		} else {
			err = e.trees[t2].Insert(b, e.trees[t2].RandomNode(e.rng), e.rng.Intn(2) == 0)
		}
		if err != nil {
			e.swapSpares(t1, t2)
			return move{}, false
		}
		e.tierOf[b] = t2
		return move{kind: interMove, t1: t1, t2: t2, blk: b}, true
	}
}

// repackMove saves the cached tier extents and repacks the tiers mv
// touched.
func (e *engine) repackMove(mv move) {
	e.savedW = append(e.savedW[:0], e.tierW...)
	e.savedH = append(e.savedH[:0], e.tierH...)
	e.repack(mv.t1)
	if mv.t2 >= 0 {
		e.repack(mv.t2)
	}
}

// undo reverts a move applied by perturb and repacked by repackMove. The
// blocks keep the coordinates the rejected repack wrote, but tree
// membership and tiers change back, so the touched tiers are rescanned.
func (e *engine) undo(mv move) {
	copy(e.tierW, e.savedW)
	copy(e.tierH, e.savedH)
	e.markDirty(mv.t1)
	if mv.t2 >= 0 {
		e.markDirty(mv.t2)
	}
	switch mv.kind {
	case intraSwap:
		e.trees[mv.t1].SwapBlocks(mv.a, mv.b)
	case interSwap:
		bstar.SwapBlocksAcross(e.trees[mv.t1], mv.a, e.trees[mv.t2], mv.b)
		e.tierOf[e.trees[mv.t1].BlockAt(mv.a)] = mv.t1
		e.tierOf[e.trees[mv.t2].BlockAt(mv.b)] = mv.t2
	case intraMove:
		e.swapSpares(mv.t1, -1)
	case interMove:
		e.swapSpares(mv.t1, mv.t2)
		e.tierOf[mv.blk] = mv.t1
	}
}

// swapSpares exchanges the live trees of the given tiers (t2 may be -1)
// with their spares, restoring the forest saved before a tree move.
func (e *engine) swapSpares(t1, t2 int) {
	e.trees[t1], e.spare[t1] = e.spare[t1], e.trees[t1]
	if t2 >= 0 {
		e.trees[t2], e.spare[t2] = e.spare[t2], e.trees[t2]
	}
}

// anneal runs the SA loop with a geometric cooling schedule, tracking the
// best forest seen. The context is checked every cancelCheckInterval moves
// so a deadline aborts within a bounded number of perturbations.
//
// With a non-nil exchanger the chain synchronizes with its peers at the
// exchanger's iteration milestones and adopts the global best forest when
// it is strictly better than its own (a strictly-better rule keeps a
// Chains=1 run byte-identical to the sequential placer: a lone chain never
// adopts its own best). Exchange consumes no PRNG draws, so the trajectory
// between milestones is exactly the single-chain trajectory.
func (e *engine) anneal(ctx context.Context, ex *exchanger, chain int) error {
	cur := e.cost()
	e.bestTrees, e.bestTierOf = e.snapshot()
	e.bestCost = cur
	n := e.opts.Iterations
	t0, tEnd := e.opts.InitialTemp, e.opts.FinalTemp
	decay := math.Pow(tEnd/t0, 1/math.Max(1, float64(n)))
	temp := t0
	sinceBest := 0
	nextMilestone := 0
	for it := 0; it < n; it++ {
		if it%cancelCheckInterval == 0 {
			if err := faults.Canceled(ctx); err != nil {
				return fmt.Errorf("place: SA aborted after %d/%d moves: %w", it, n, err)
			}
		}
		if ex != nil && nextMilestone < len(ex.milestones) && it == ex.milestones[nextMilestone] {
			nextMilestone++
			best := ex.exchange(chain, e.bestCost, e.bestTrees, e.bestTierOf)
			if best.valid && best.chain != chain && best.cost < e.bestCost {
				e.adopt(best)
				cur = e.bestCost
				sinceBest = 0
			}
		}
		mv, ok := e.perturb()
		if !ok {
			continue
		}
		e.moves++
		e.repackMove(mv)
		next := e.cost()
		accept := next <= cur || e.rng.Float64() < math.Exp(-(next-cur)/temp)
		if accept {
			cur = next
			if cur < e.bestCost {
				e.bestCost = cur
				e.bestTrees, e.bestTierOf = e.snapshot()
				sinceBest = 0
			} else {
				sinceBest++
			}
		} else {
			e.undo(mv)
			sinceBest++
		}
		// Restart from the best solution when stuck deep in the schedule.
		if sinceBest > n/4 && temp < t0/100 {
			e.restoreBest()
			cur = e.bestCost
			sinceBest = 0
		}
		temp *= decay
	}
	e.restoreBest()
	return nil
}

func (e *engine) snapshot() ([]*bstar.Tree, []int) {
	trees := make([]*bstar.Tree, len(e.trees))
	for i, t := range e.trees {
		trees[i] = t.CloneInto(e.blocks)
	}
	return trees, append([]int(nil), e.tierOf...)
}

// adopt makes a peer chain's best forest this chain's best and current
// forest.
func (e *engine) adopt(o offer) {
	e.bestCost = o.cost
	e.bestTrees = cloneTrees(o.trees, e.blocks)
	e.bestTierOf = append([]int(nil), o.tierOf...)
	e.restoreBest()
}

// restoreBest makes the best forest current; repacking every tier marks
// them all dirty.
func (e *engine) restoreBest() {
	e.trees = make([]*bstar.Tree, len(e.bestTrees))
	for i, t := range e.bestTrees {
		e.trees[i] = t.CloneInto(e.blocks)
	}
	copy(e.tierOf, e.bestTierOf)
	for t := range e.trees {
		e.repack(t)
	}
}

// placement materializes the final placement.
func (e *engine) placement() *Placement {
	e.refresh()
	pos := slices.Clone(e.pos)
	wl := wireLength(e.netList, pos)
	// TSL reallocation may have permuted supers across tiers; derive the
	// final tier of each super from its resolved z.
	tierOf := make([]int, len(pos))
	for i, p := range pos {
		tierOf[i] = (p.Z - 1) / e.pitch
	}
	return &Placement{
		Clust:      e.cl,
		Nets:       e.nets,
		Pos:        pos,
		TierOf:     tierOf,
		Tiers:      len(e.trees),
		WireLength: wl,
		Cost:       e.bestCost,
		Moves:      e.moves,
	}
}

// SuperBox returns the absolute body box of super s.
func (p *Placement) SuperBox(s int) geom.Box {
	sz := p.Clust.Supers[s].Size
	return geom.BoxAt(p.Pos[s], sz.X, sz.Y, sz.Z)
}

// ModuleBox returns the absolute body box of module m.
func (p *Placement) ModuleBox(m int) geom.Box {
	sid := p.Clust.OfModule[m]
	s := p.Clust.Supers[sid]
	for i, mm := range s.Members {
		if mm == m {
			sz := cluster.ModuleSize(p.Clust.NL, m)
			return geom.BoxAt(p.Pos[sid].Add(s.Offsets[i]), sz.X, sz.Y, sz.Z)
		}
	}
	return geom.Box{}
}

// BoxObstacles returns the absolute boxes of all embedded distillation
// boxes.
func (p *Placement) BoxObstacles() []geom.Box {
	var out []geom.Box
	for sid, s := range p.Clust.Supers {
		for _, bm := range s.Boxes {
			sz := bm.Kind.Size()
			out = append(out, geom.BoxAt(p.Pos[sid].Add(bm.Offset), sz.X, sz.Y, sz.Z))
		}
	}
	return out
}

// PinPos returns the absolute cell of pin id.
func (p *Placement) PinPos(id int) (geom.Point, error) {
	off, err := p.Clust.PinOffset(id)
	if err != nil {
		return geom.Point{}, err
	}
	pin := p.Clust.NL.Pins[id]
	m := p.Clust.NL.Segments[pin.Segment].Module
	sid := p.Clust.OfModule[m]
	s := p.Clust.Supers[sid]
	for i, mm := range s.Members {
		if mm == m {
			return p.Pos[sid].Add(s.Offsets[i]).Add(off), nil
		}
	}
	return geom.Point{}, fmt.Errorf("place: module %d missing from super %d", m, sid)
}

// Bounds returns the bounding box of all module bodies and boxes.
func (p *Placement) Bounds() geom.Box {
	var b geom.Box
	for m := range p.Clust.NL.Modules {
		b = b.Union(p.ModuleBox(m))
	}
	for _, ob := range p.BoxObstacles() {
		b = b.Union(ob)
	}
	return b
}

// Dims returns the W (y), H (z), D (x) extents of the placed bodies.
func (p *Placement) Dims() (w, h, d int) {
	b := p.Bounds()
	return b.Dy(), b.Dz(), b.Dx()
}

// CheckTimeOrdering verifies that every qubit's T blocks sit in
// non-decreasing x order (the geometric proxy for the time-ordered
// measurement constraint) and that, inside each time-dependent super, the
// Z module ends before the teleport modules end.
func (p *Placement) CheckTimeOrdering() error {
	for q, tsl := range p.Clust.TSLs {
		lastX := math.MinInt64
		for k, id := range tsl {
			x := p.Pos[id].X
			if x < lastX {
				return fmt.Errorf("place: qubit %d T block %d at x=%d before predecessor at x=%d",
					q, k, x, lastX)
			}
			lastX = x
		}
	}
	for _, s := range p.Clust.Supers {
		if s.Kind != cluster.KindTimeDep {
			continue
		}
		z := p.ModuleBox(s.Members[0])
		for _, m := range s.Members[1:] {
			t := p.ModuleBox(m)
			if t.Max.X < z.Max.X {
				return fmt.Errorf("place: super %d teleport module %d ends before Z module", s.ID, m)
			}
		}
	}
	return nil
}

// CheckNoOverlap verifies that no two module bodies or boxes overlap.
func (p *Placement) CheckNoOverlap() error {
	var boxes []geom.Box
	var names []string
	for m := range p.Clust.NL.Modules {
		boxes = append(boxes, p.ModuleBox(m))
		names = append(names, fmt.Sprintf("module %d", m))
	}
	for i, ob := range p.BoxObstacles() {
		boxes = append(boxes, ob)
		names = append(names, fmt.Sprintf("box %d", i))
	}
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Intersects(boxes[j]) {
				return fmt.Errorf("place: %s overlaps %s (%v ∩ %v)", names[i], names[j], boxes[i], boxes[j])
			}
		}
	}
	return nil
}
