package place

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
)

// freshPositions recomputes every super's final origin from the current
// block coordinates and tiers, reallocating every TSL of the clustering's
// map: the full evaluation the engine's cache must mirror.
func freshPositions(e *engine) []geom.Point {
	pos := make([]geom.Point, len(e.blocks))
	for i, b := range e.blocks {
		pos[i] = geom.Pt(b.X+e.opts.Margin, b.Y+e.opts.Margin, 1+e.tierOf[i]*e.pitch)
	}
	for _, tsl := range e.cl.TSLs {
		if len(tsl) < 2 {
			continue
		}
		var ps []geom.Point
		for _, id := range tsl {
			ps = append(ps, pos[id])
		}
		slices.SortStableFunc(ps, func(a, b geom.Point) int {
			return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Z, b.Z), cmp.Compare(a.Y, b.Y))
		})
		for i, id := range tsl {
			pos[id] = ps[i]
		}
	}
	return pos
}

// checkCache asserts that the cost just returned by e.cost() is Φ over
// freshly computed positions, bit for bit, and that the cached origins,
// net lengths and total L match the full evaluation.
func checkCache(t *testing.T, e *engine, got float64, label string) {
	t.Helper()
	pos := freshPositions(e)
	if !slices.Equal(e.pos, pos) {
		t.Fatalf("%s: cached origins differ from a full rescan:\n%v\n%v", label, e.pos, pos)
	}
	l := wireLength(e.netList, pos)
	if e.wl != l {
		t.Fatalf("%s: incremental L = %d, full sum = %d", label, e.wl, l)
	}
	for i, n := range e.netList {
		if e.netLen[i] != n.length(pos) {
			t.Fatalf("%s: net %d cached length %d, want %d", label, i, e.netLen[i], n.length(pos))
		}
	}
	v, r, _ := e.evaluateRaw()
	dr := r - e.opts.AspectTarget
	want := e.opts.Alpha*float64(v)/e.vnorm + e.opts.Beta*float64(l)/e.lnorm + e.opts.Gamma*dr*dr
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Φ = %v, full evaluation %v", label, got, want)
	}
}

// driveMoves runs steps seeded SA moves on e the way anneal does —
// perturb, repack, score, then accept or undo — with rng choosing the
// outcome. It checks the cache after every score, after some undos (the
// others leave their dirty tiers to the next move) and after restoring
// the best forest every 37 steps.
func driveMoves(t *testing.T, e *engine, rng *rand.Rand, steps int, label string) {
	t.Helper()
	cur := e.cost()
	checkCache(t, e, cur, label+"/start")
	if e.bestTrees == nil {
		e.bestTrees, e.bestTierOf = e.snapshot()
		e.bestCost = cur
	}
	for step := 0; step < steps; step++ {
		at := fmt.Sprintf("%s/step=%d", label, step)
		if mv, ok := e.perturb(); ok {
			e.repackMove(mv)
			next := e.cost()
			checkCache(t, e, next, at+"/move")
			if rng.Intn(2) == 0 {
				cur = next
				if cur < e.bestCost {
					e.bestCost = cur
					e.bestTrees, e.bestTierOf = e.snapshot()
				}
			} else {
				e.undo(mv)
				if step%3 == 0 {
					checkCache(t, e, e.cost(), at+"/undo")
				}
			}
		}
		if step%37 == 36 {
			e.restoreBest()
			cur = e.bestCost
			checkCache(t, e, e.cost(), at+"/restore")
		}
	}
}

// TestIncrementalWireLengthMatchesFullSum drives seeded move sequences on
// the chains_test corpus and checks after every step that the incremental
// L, the cached origins and Φ equal a full evaluation.
func TestIncrementalWireLengthMatchesFullSum(t *testing.T) {
	for name, mk := range corpus(t) {
		cl, nets := pipeline(t, mk())
		for _, seed := range []int64{1, 7} {
			o := quickOpts(0)
			o.Seed = seed
			e, err := newEngine(cl, nets, o)
			if err != nil {
				t.Fatal(err)
			}
			driveMoves(t, e, rand.New(rand.NewSource(seed)), 400, fmt.Sprintf("%s/seed=%d", name, seed))
		}
	}
}

// TestIncrementalWireLengthAcrossAdoption checks the cache across an
// exchange adoption: two chains over the same clustering each anneal, then
// each adopts the other's best forest and continues. It also runs a real
// two-chain anneal with exchange and checks both engines at the end.
func TestIncrementalWireLengthAcrossAdoption(t *testing.T) {
	for name, mk := range corpus(t) {
		cl, nets := pipeline(t, mk())
		engines := make([]*engine, 2)
		for j := range engines {
			o := quickOpts(0)
			o.Seed = chainSeed(3, j)
			e, err := newEngine(cl, nets, o)
			if err != nil {
				t.Fatal(err)
			}
			engines[j] = e
			driveMoves(t, e, rand.New(rand.NewSource(int64(j))), 150, fmt.Sprintf("%s/chain=%d", name, j))
		}
		for j, e := range engines {
			peer := engines[1-j]
			e.adopt(offer{valid: true, cost: peer.bestCost, trees: peer.bestTrees, tierOf: peer.bestTierOf, chain: 1 - j})
			label := fmt.Sprintf("%s/chain=%d/adopted", name, j)
			checkCache(t, e, e.cost(), label)
			driveMoves(t, e, rand.New(rand.NewSource(int64(10+j))), 150, label)
		}

		o := quickOpts(300)
		ex := newExchanger(2, o.Iterations)
		var wg sync.WaitGroup
		for j := range engines {
			o.Seed = chainSeed(5, j)
			e, err := newEngine(cl, nets, o)
			if err != nil {
				t.Fatal(err)
			}
			engines[j] = e
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				defer ex.leave(j)
				if err := engines[j].anneal(context.Background(), ex, j); err != nil {
					t.Error(err)
				}
			}(j)
		}
		wg.Wait()
		for j, e := range engines {
			checkCache(t, e, e.cost(), fmt.Sprintf("%s/anneal/chain=%d", name, j))
			if p := e.placement(); p.WireLength != e.wl {
				t.Fatalf("%s: placement wirelength %d, cache %d", name, p.WireLength, e.wl)
			}
		}
	}
}
