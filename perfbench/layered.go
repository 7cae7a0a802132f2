package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/distill"
	"repro/internal/faults"
	"repro/internal/icm"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/place"
	"repro/internal/qc"
	"repro/internal/route"
	"repro/internal/zx"
	"repro/tqec"
)

// layerTime is the accumulated time and allocation of one layer within a
// traced compile.
type layerTime struct {
	d     time.Duration
	alloc uint64
}

// tracedResult is a traced compile's result plus the numbers only the
// layer-by-layer compile can see.
type tracedResult struct {
	res    *tqec.Result
	layers map[string]layerTime
	zx     zx.Stats
	// zxRan reports that the ZX stage was attempted (Options.ZX).
	zxRan bool
}

// compileTraced compiles c layer by layer, recording a span around each
// direct call into a layer's public function. It follows
// tqec.CompileContext's stage order, counters and placement retry policy
// (derived seed, escalated budget), so server.EncodeResult of its result
// must be byte-identical to that of tqec.CompileContext.
func compileTraced(ctx context.Context, tr *tracer, c *qc.Circuit, opts tqec.Options) (*tracedResult, error) {
	trace := tr.newID()
	root := tr.newID()
	t0 := time.Now()
	out := &tracedResult{layers: map[string]layerTime{}}
	res := &tqec.Result{Circuit: c, Breakdown: metrics.NewBreakdown()}
	step := func(name string, fn func()) {
		s := tr.do(trace, root, name, true, fn)
		lt := out.layers[name]
		lt.d += s.dur()
		lt.alloc += s.AllocBytes
		out.layers[name] = lt
	}
	defer func() {
		tr.add(span{Trace: trace, ID: root, Name: "tqec.CompileContext(traced)",
			StartNS: int64(t0.Sub(tr.origin)), EndNS: int64(time.Since(tr.origin))})
	}()

	var err error
	var d *decompose.Result
	step("decompose.Decompose", func() { d, err = decompose.Decompose(c) })
	if err != nil {
		return nil, fmt.Errorf("decompose: %w", err)
	}
	res.Decomposed = d.Circuit
	if opts.ZX {
		out.zxRan = true
		var red *qc.Circuit
		step("zx.Optimize", func() { red, out.zx, err = zx.Optimize(res.Decomposed) })
		if err != nil {
			return nil, fmt.Errorf("zx: %w", err)
		}
		res.Decomposed = red
		res.Breakdown.Count(metrics.CounterZXGatesBefore, out.zx.GatesBefore)
		res.Breakdown.Count(metrics.CounterZXGatesAfter, out.zx.GatesAfter)
		res.Breakdown.Count(metrics.CounterZXRewrites, out.zx.Rewrites)
		if !out.zx.Applied {
			res.Breakdown.Count(metrics.CounterZXFallbacks, 1)
		}
	}
	step("icm.FromDecomposed", func() { res.ICM, err = icm.FromDecomposed(res.Decomposed) })
	if err != nil {
		return nil, fmt.Errorf("icm: %w", err)
	}
	step("canonical.Build", func() { res.Canonical, err = canonical.Build(res.ICM) })
	if err != nil {
		return nil, fmt.Errorf("canonical: %w", err)
	}
	gap := max(opts.PrimalGap, 1)
	step("modular.BuildWithGap", func() { res.Netlist, err = modular.BuildWithGap(res.Canonical, gap) })
	if err != nil {
		return nil, fmt.Errorf("modular: %w", err)
	}
	stats := res.ICM.Stats()
	res.CanonicalVolume = res.Canonical.Volume()
	res.BoxVolume = distill.BoxVolume(stats.NumY, stats.NumA)

	step("bridge.RunContext", func() { res.Bridging, err = bridge.RunContext(ctx, res.Netlist, opts.Bridging) })
	if err != nil {
		return nil, fmt.Errorf("bridge: %w", err)
	}
	step("cluster.Build", func() {
		res.Clustering, err = cluster.Build(res.Netlist, cluster.Options{
			PrimalGroups: opts.PrimalGroups,
			MaxGroupSize: opts.MaxGroupSize,
			NoBoxes:      opts.NoBoxes,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if err := placeWithRetry(ctx, step, res, opts); err != nil {
		return nil, err
	}

	ropts := opts.Route
	start := time.Now()
	ropts.Clock = func() time.Duration { return time.Since(start) }
	step("route.RunContext", func() { res.Routing, err = route.RunContext(ctx, res.Placement, ropts) })
	if err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	res.Degraded = res.Routing.Degraded
	if n := len(res.Routing.FallbackNets); n > 0 {
		res.Breakdown.Count(metrics.CounterFallbackNets, n)
	}
	if n := len(res.Routing.Failed); n > 0 {
		res.Breakdown.Count(metrics.CounterUnroutedNets, n)
		if opts.StrictRouting {
			return nil, fmt.Errorf("route: %w: %d net(s) failed negotiation and fallback", faults.ErrUnroutable, n)
		}
	}
	if res.Degraded {
		res.Breakdown.Count(metrics.CounterDegradations, 1)
	}
	b := res.Routing.Bounds
	res.Dims = metrics.Dims{W: b.Dy(), H: b.Dz(), D: b.Dx()}
	res.Volume = res.Dims.Volume()
	out.res = res
	return out, nil
}

// placeWithRetry mirrors tqec's placement retry policy: a placement that
// fails the overlap or time-ordering check is retried with seed
// Seed+1000003·attempt and the SA budget multiplied by the escalation.
func placeWithRetry(ctx context.Context, step func(string, func()), res *tqec.Result, opts tqec.Options) error {
	attempts := max(opts.Retry.MaxAttempts, 1)
	esc := opts.Retry.Escalation
	if esc <= 1 {
		esc = 2
	}
	popts := opts.Place
	budget := popts.EffectiveIterations(len(res.Clustering.Supers))
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			popts.Seed = opts.Place.Seed + 1000003*int64(attempt)
			budget = int(float64(budget) * esc)
			popts.Iterations = budget
			res.Breakdown.Count(metrics.CounterPlacementRetries, 1)
		}
		var pl *place.Placement
		var err error
		step("place.RunContext", func() { pl, err = place.RunContext(ctx, res.Clustering, res.Bridging.Nets, popts) })
		if err != nil {
			return fmt.Errorf("place: %w", err)
		}
		res.Placement = pl
		res.PlacementAttempts = attempt + 1
		step("place.Check", func() {
			if err = pl.CheckNoOverlap(); err == nil {
				err = pl.CheckTimeOrdering()
			}
		})
		if err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("place: %w after %d attempt(s): %w", faults.ErrPlacementInvalid, attempts, lastErr)
}
