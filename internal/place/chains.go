package place

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bridge"
	"repro/internal/bstar"
	"repro/internal/cluster"
	"repro/internal/faults"
)

// exchangeMilestones is the number of best-cost exchange rounds a
// multi-chain run performs. Milestones sit at fixed fractions of the
// iteration budget; because the cooling schedule is a deterministic
// function of the iteration index, they are equivalently temperature
// milestones.
const exchangeMilestones = 4

// chainSeed derives the PRNG seed of chain k from the base seed. Chain 0
// always anneals with the base seed itself, which is what makes a
// Chains=1 run byte-identical to the plain sequential placer; higher
// chains get decorrelated streams through a splitmix64-style mix.
func chainSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	z := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// EffectiveChains resolves the chain count Run will use: the configured
// Chains value, or min(GOMAXPROCS, 4) when it is zero or negative. For a
// fixed (Seed, chain count) pair the multi-chain result is bit-identical
// across runs and machines.
func (o Options) EffectiveChains() int {
	if o.Chains > 0 {
		return o.Chains
	}
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// offer is one chain's contribution to an exchange round.
type offer struct {
	valid  bool
	cost   float64
	trees  []*bstar.Tree
	tierOf []int
	chain  int
}

// exchanger synchronizes K annealing chains at the iteration milestones.
// Every live chain arrives with its best-so-far forest; the last arrival
// picks the global best (lowest cost, ties broken by the lowest chain
// index) and releases the round. Chains that abort (cancellation, panic)
// leave the exchanger so the remaining chains never deadlock.
//
// The offered tree snapshots are safe to clone concurrently after the
// round completes: an engine only ever replaces its best-forest pointers
// with freshly cloned trees, it never mutates a published snapshot in
// place.
type exchanger struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	round   int
	offers  []offer
	best    offer

	// milestones are the iteration indices (sorted ascending) at which
	// chains exchange; identical for every chain of a run.
	milestones []int
}

// newExchanger builds the exchange schedule for k chains annealing n
// iterations each.
func newExchanger(k, n int) *exchanger {
	x := &exchanger{parties: k, offers: make([]offer, k)}
	x.cond = sync.NewCond(&x.mu)
	for m := 1; m < exchangeMilestones; m++ {
		it := m * n / exchangeMilestones
		if it > 0 && (len(x.milestones) == 0 || x.milestones[len(x.milestones)-1] != it) {
			x.milestones = append(x.milestones, it)
		}
	}
	return x
}

// exchange blocks chain until every live chain has arrived at the current
// milestone, then returns the round's global best offer. The returned
// snapshot must be treated as read-only; adopters clone it.
func (x *exchanger) exchange(chain int, cost float64, trees []*bstar.Tree, tierOf []int) offer {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.offers[chain] = offer{valid: true, cost: cost, trees: trees, tierOf: tierOf, chain: chain}
	x.arrived++
	round := x.round
	if x.arrived >= x.parties {
		x.completeRound()
	} else {
		for round == x.round {
			x.cond.Wait()
		}
	}
	return x.best
}

// leave removes a chain from the barrier (normal completion or abort). If
// the departure satisfies a round in progress, the round completes.
func (x *exchanger) leave(chain int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.parties--
	x.offers[chain] = offer{}
	if x.parties > 0 && x.arrived >= x.parties {
		x.completeRound()
	}
}

// completeRound picks the global best among the arrived offers and wakes
// the waiting chains. Called with x.mu held.
func (x *exchanger) completeRound() {
	best := offer{}
	for _, o := range x.offers {
		if !o.valid {
			continue
		}
		if !best.valid || o.cost < best.cost {
			best = o
		}
	}
	x.best = best
	for i := range x.offers {
		x.offers[i] = offer{}
	}
	x.arrived = 0
	x.round++
	x.cond.Broadcast()
}

// cloneTrees deep-copies a forest snapshot, rebinding it to blocks.
func cloneTrees(trees []*bstar.Tree, blocks []*bstar.Block) []*bstar.Tree {
	out := make([]*bstar.Tree, len(trees))
	for i, t := range trees {
		out[i] = t.CloneInto(blocks)
	}
	return out
}

// runChains anneals k independent chains with periodic best-cost exchange
// and returns the lowest-cost placement, ties broken by the lowest chain
// index. Chain 0 uses opts.Seed verbatim; chain j > 0 uses a seed derived
// deterministically from (opts.Seed, j), so the result is a pure function
// of (seed, chain count): the exchange rounds are barriers, the adoption
// rule is deterministic, and the winner selection never depends on
// goroutine scheduling.
func runChains(ctx context.Context, cl *cluster.Clustering, nets []bridge.Net, opts Options, k int) (*Placement, error) {
	if k <= 1 {
		return runOnce(ctx, cl, nets, opts)
	}
	// Engines are built sequentially: construction is deterministic and
	// rng-free, so every chain starts from the identical initial forest
	// (and therefore shares comparable vnorm/lnorm cost normalization).
	engines := make([]*engine, k)
	for j := 0; j < k; j++ {
		o := opts
		o.Seed = chainSeed(opts.Seed, j)
		e, err := newEngine(cl, nets, o)
		if err != nil {
			return nil, err
		}
		engines[j] = e
	}
	ex := newExchanger(k, engines[0].opts.Iterations)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			// A panic in a chain must not crash the process, and the
			// dying chain must leave the barrier or its peers deadlock.
			defer ex.leave(j)
			defer func() {
				if r := recover(); r != nil {
					errs[j] = fmt.Errorf("place: %w: SA chain %d: %v", faults.ErrPanic, j, r)
				}
			}()
			errs[j] = engines[j].anneal(ctx, ex, j)
		}(j)
	}
	wg.Wait()
	// Deterministic error propagation: the lowest-indexed chain's error
	// wins, regardless of which goroutine failed first in wall time.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Winner selection: strictly lower cost wins, so cost ties resolve to
	// the lowest chain index by construction.
	best := engines[0]
	for j := 1; j < k; j++ {
		if engines[j].bestCost < best.bestCost {
			best = engines[j]
		}
	}
	return best.placement(), nil
}
