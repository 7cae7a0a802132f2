package check

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/ccache"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/tqec"
)

// DiffChains cross-checks the placement engine's determinism contract:
// two runs with the same (seed, chains=K) configuration must be
// bit-identical, and the single-chain configuration (specified to match
// the sequential annealer exactly) must produce a structurally legal
// placement of the same clustering.
func DiffChains(ctx context.Context, res *tqec.Result, opts tqec.Options, chains int) error {
	popts := opts.Place
	popts.Chains = chains
	first, err := place.RunContext(ctx, res.Clustering, res.Bridging.Nets, popts)
	if err != nil {
		return fmt.Errorf("chains=%d run 1: %w", chains, err)
	}
	second, err := place.RunContext(ctx, res.Clustering, res.Bridging.Nets, popts)
	if err != nil {
		return fmt.Errorf("chains=%d run 2: %w", chains, err)
	}
	if err := samePlacement(first, second); err != nil {
		return fmt.Errorf("chains=%d reruns diverge: %w", chains, err)
	}
	popts.Chains = 1
	seq, err := place.RunContext(ctx, res.Clustering, res.Bridging.Nets, popts)
	if err != nil {
		return fmt.Errorf("chains=1: %w", err)
	}
	if err := seq.CheckNoOverlap(); err != nil {
		return fmt.Errorf("chains=1: %w", err)
	}
	if err := seq.CheckTimeOrdering(); err != nil {
		return fmt.Errorf("chains=1: %w", err)
	}
	return nil
}

// samePlacement compares two placements for bit-identical geometry.
func samePlacement(a, b *place.Placement) error {
	if a.Tiers != b.Tiers {
		return fmt.Errorf("tiers %d vs %d", a.Tiers, b.Tiers)
	}
	if a.WireLength != b.WireLength {
		return fmt.Errorf("wirelength %d vs %d", a.WireLength, b.WireLength)
	}
	if len(a.Pos) != len(b.Pos) {
		return fmt.Errorf("%d vs %d supers", len(a.Pos), len(b.Pos))
	}
	for s := range a.Pos {
		if a.Pos[s] != b.Pos[s] {
			return fmt.Errorf("super %d at %v vs %v", s, a.Pos[s], b.Pos[s])
		}
		if a.TierOf[s] != b.TierOf[s] {
			return fmt.Errorf("super %d on tier %d vs %d", s, a.TierOf[s], b.TierOf[s])
		}
	}
	return nil
}

// DiffSerialRouting cross-checks the router's batched first pass against
// the serial pass across every scheduler mode: the conflict-graph batched
// implementation only co-schedules nets whose search regions are pairwise
// disjoint and commits in net order, so for the plain configuration, the
// unidirectional-only configuration, and (when friend nets are enabled)
// the multi-terminal Steiner configuration the two modes must agree on
// every routed cell and every diagnostic counter. The Steiner result is
// additionally re-verified structurally, since its terminal rule (group
// connectivity) differs from the two-pin modes.
func DiffSerialRouting(ctx context.Context, res *tqec.Result, opts tqec.Options) error {
	base := opts.Route
	modes := []struct {
		label string
		mut   func(*route.Options)
	}{
		{"default", func(*route.Options) {}},
		{"unidirectional", func(o *route.Options) { o.Bidirectional = false }},
	}
	if base.FriendNets {
		modes = append(modes, struct {
			label string
			mut   func(*route.Options)
		}{"steiner", func(o *route.Options) { o.Steiner = true }})
	}
	for _, m := range modes {
		mopts := base
		m.mut(&mopts)
		par, err := diffRoutePair(ctx, res, mopts, m.label)
		if err != nil {
			return err
		}
		if mopts.Steiner {
			if err := route.VerifyStructure(res.Placement, par); err != nil {
				return fmt.Errorf("%s: %w", m.label, err)
			}
		}
	}
	return nil
}

// diffRoutePair routes the placement serially and batched under the same
// options and returns the batched result after asserting both runs are
// identical in every deterministic field.
func diffRoutePair(ctx context.Context, res *tqec.Result, ropts route.Options, label string) (*route.Result, error) {
	serialOpts := ropts
	serialOpts.Serial = true
	serial, err := route.RunContext(ctx, res.Placement, serialOpts)
	if err != nil {
		return nil, fmt.Errorf("%s serial: %w", label, err)
	}
	parOpts := ropts
	parOpts.Serial = false
	par, err := route.RunContext(ctx, res.Placement, parOpts)
	if err != nil {
		return nil, fmt.Errorf("%s batched: %w", label, err)
	}
	if len(serial.Routes) != len(par.Routes) {
		return nil, fmt.Errorf("%s: serial routed %d nets, batched %d", label, len(serial.Routes), len(par.Routes))
	}
	for id, sp := range serial.Routes {
		pp, ok := par.Routes[id]
		if !ok {
			return nil, fmt.Errorf("%s: net %d routed serially but not batched", label, id)
		}
		if len(sp) != len(pp) {
			return nil, fmt.Errorf("%s: net %d path length %d serial vs %d batched", label, id, len(sp), len(pp))
		}
		for i := range sp {
			if sp[i] != pp[i] {
				return nil, fmt.Errorf("%s: net %d cell %d: %v serial vs %v batched", label, id, i, sp[i], pp[i])
			}
		}
	}
	if serial.Bounds != par.Bounds {
		return nil, fmt.Errorf("%s: bounds %v serial vs %v batched", label, serial.Bounds, par.Bounds)
	}
	if serial.FirstPassRouted != par.FirstPassRouted ||
		serial.Iterations != par.Iterations ||
		serial.RippedUp != par.RippedUp ||
		len(serial.Failed) != len(par.Failed) ||
		len(serial.FallbackNets) != len(par.FallbackNets) {
		return nil, fmt.Errorf("%s: diagnostics diverge: serial firstPass=%d iters=%d ripped=%d failed=%d fallback=%d, batched firstPass=%d iters=%d ripped=%d failed=%d fallback=%d",
			label, serial.FirstPassRouted, serial.Iterations, serial.RippedUp, len(serial.Failed), len(serial.FallbackNets),
			par.FirstPassRouted, par.Iterations, par.RippedUp, len(par.Failed), len(par.FallbackNets))
	}
	return par, nil
}

// diffCacheBudget bounds the scratch cache used by DiffCacheBytes; any
// real compile payload fits comfortably.
const diffCacheBudget = 1 << 24

// DiffCacheBytes cross-checks the compile service's content-addressed
// caching: a fresh compile routed through the cache must miss, the repeat
// must hit, and both payloads must be byte-identical to encoding the
// result under test directly — the property that makes serving cached
// bytes indistinguishable from recompiling.
func DiffCacheBytes(ctx context.Context, res *tqec.Result, opts tqec.Options) error {
	key, err := tqec.CacheKey(res.Circuit, opts)
	if err != nil {
		return err
	}
	cache := ccache.New(diffCacheBudget)
	compute := func() ([]byte, error) {
		fresh, err := tqec.CompileContext(ctx, res.Circuit, opts)
		if err != nil {
			return nil, err
		}
		return server.EncodeResult(key, fresh)
	}
	first, outcome, err := cache.Do(ctx, key, compute)
	if err != nil {
		return fmt.Errorf("cached compile: %w", err)
	}
	if outcome != ccache.Miss {
		return fmt.Errorf("first cache access was %v, want miss", outcome)
	}
	second, outcome, err := cache.Do(ctx, key, compute)
	if err != nil {
		return fmt.Errorf("cache replay: %w", err)
	}
	if outcome != ccache.Hit {
		return fmt.Errorf("second cache access was %v, want hit", outcome)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("cache replay returned different bytes (%d vs %d)", len(first), len(second))
	}
	direct, err := server.EncodeResult(key, res)
	if err != nil {
		return err
	}
	if !bytes.Equal(direct, first) {
		return fmt.Errorf("cached bytes differ from direct encoding (%d vs %d bytes)", len(first), len(direct))
	}
	return nil
}

// DiffBridging cross-checks a bridged compilation against the unbridged
// ablation of the same circuit: the ablation must satisfy the same
// structural invariants, share the ICM footprint and canonical volume
// (bridging is purely geometric), and perform no merges. On circuits
// whose decomposed form fits in maxSimQubits the decomposition both runs
// share is additionally verified against the source circuit by
// state-vector simulation; the returned flag reports whether that
// simulation ran.
func DiffBridging(ctx context.Context, res *tqec.Result, opts tqec.Options, maxSimQubits int) (bool, error) {
	ablOpts := opts
	ablOpts.Bridging = false
	// Unbridged netlists keep every dual segment and net and need more
	// routing resource (the paper's Table V explanation; same settings as
	// the harness ablation runs).
	ablOpts.Place.Margin = 2
	ablOpts.Place.TierPitch = 4
	abl, err := tqec.CompileContext(ctx, res.Circuit, ablOpts)
	if err != nil {
		return false, fmt.Errorf("unbridged compile: %w", err)
	}
	if err := BridgeReconstructable(abl); err != nil {
		return false, fmt.Errorf("unbridged: %w", err)
	}
	if err := PlacementLegal(abl); err != nil {
		return false, fmt.Errorf("unbridged: %w", err)
	}
	// The unbridged netlist may exhaust the router even with the extra
	// margin — the very congestion Table V quantifies — so degradation is
	// tolerated here; what did route must still be structurally sound.
	if err := RoutingStructurallySound(abl); err != nil {
		return false, fmt.Errorf("unbridged: %w", err)
	}
	if err := VolumeAccounting(abl); err != nil {
		return false, fmt.Errorf("unbridged: %w", err)
	}
	if abl.Bridging.Merges != 0 || abl.Bridging.RemovedSegments != 0 {
		return false, fmt.Errorf("unbridged run reports %d merges and %d removed segments",
			abl.Bridging.Merges, abl.Bridging.RemovedSegments)
	}
	if abl.CanonicalVolume != res.CanonicalVolume {
		return false, fmt.Errorf("canonical volume %d unbridged vs %d bridged", abl.CanonicalVolume, res.CanonicalVolume)
	}
	if a, b := abl.ICM.Stats(), res.ICM.Stats(); a != b {
		return false, fmt.Errorf("ICM stats diverge: %+v unbridged vs %+v bridged", a, b)
	}

	if res.Decomposed == nil || maxSimQubits <= 0 || len(res.Decomposed.Qubits) > maxSimQubits {
		return false, nil
	}
	nq := len(res.Decomposed.Qubits)
	padded := res.Circuit.Clone()
	padded.Qubits = append([]string(nil), res.Decomposed.Qubits...)
	ok, err := sim.EquivalentOnCleanAncillas(nq, res.Circuit.NumQubits(), padded, res.Decomposed)
	if err != nil {
		return false, fmt.Errorf("simulate: %w", err)
	}
	if !ok {
		return true, fmt.Errorf("decomposed circuit is not unitarily equivalent to %q", res.Circuit.Name)
	}
	return true, nil
}

// DiffZX cross-checks the ZX pre-compression pass against its ablation:
// the same circuit is recompiled with Options.ZX flipped, the ablation
// must satisfy every structural invariant, the ZX-on run's canonical
// volume must never exceed the ZX-off run's (the pass's self-checking
// fall-back contract), both decompositions must agree on qubit count, and
// on circuits small enough for maxSimQubits the two decompositions are
// verified unitarily equivalent on clean ancillas by state-vector
// simulation. The returned flag reports whether the simulation ran.
func DiffZX(ctx context.Context, res *tqec.Result, opts tqec.Options, maxSimQubits int) (bool, error) {
	ablOpts := opts
	ablOpts.ZX = !opts.ZX
	abl, err := tqec.CompileContext(ctx, res.Circuit, ablOpts)
	if err != nil {
		return false, fmt.Errorf("zx ablation compile (ZX=%v): %w", ablOpts.ZX, err)
	}
	if err := BridgeReconstructable(abl); err != nil {
		return false, fmt.Errorf("zx ablation: %w", err)
	}
	if err := PlacementLegal(abl); err != nil {
		return false, fmt.Errorf("zx ablation: %w", err)
	}
	if err := RoutingStructurallySound(abl); err != nil {
		return false, fmt.Errorf("zx ablation: %w", err)
	}
	if err := VolumeAccounting(abl); err != nil {
		return false, fmt.Errorf("zx ablation: %w", err)
	}
	on, off := res, abl
	if !opts.ZX {
		on, off = abl, res
	}
	if on.CanonicalVolume > off.CanonicalVolume {
		return false, fmt.Errorf("ZX-on canonical volume %d exceeds ZX-off %d",
			on.CanonicalVolume, off.CanonicalVolume)
	}
	if a, b := on.Decomposed.NumQubits(), off.Decomposed.NumQubits(); a != b {
		return false, fmt.Errorf("decomposed qubit count diverges: %d ZX-on vs %d ZX-off", a, b)
	}

	nq := on.Decomposed.NumQubits()
	if maxSimQubits <= 0 || nq > maxSimQubits {
		return false, nil
	}
	ok, err := sim.EquivalentOnCleanAncillas(nq, res.Circuit.NumQubits(), on.Decomposed, off.Decomposed)
	if err != nil {
		return false, fmt.Errorf("simulate: %w", err)
	}
	if !ok {
		return true, fmt.Errorf("ZX-on and ZX-off decompositions of %q are not unitarily equivalent", res.Circuit.Name)
	}
	return true, nil
}
