package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/qc"
	"repro/internal/server"
	"repro/tqec"
)

// Set-up repetitions: a run repeats its set-up and reports the median as
// setup_s. The compile workloads' set-up takes milliseconds, so it is
// repeated more often than the service's, which compiles its hit set.
const (
	compileSetupReps = 15
	serviceSetupReps = 3
)

// item is one compile of a workload's set: a circuit, its options and its
// content address.
type item struct {
	c    *qc.Circuit
	opts tqec.Options
	key  string
}

// newItem computes the item's content address.
func newItem(c *qc.Circuit, opts tqec.Options) (item, error) {
	key, err := tqec.CacheKey(c, opts)
	if err != nil {
		return item{}, fmt.Errorf("cache key of %s: %w", c.Name, err)
	}
	return item{c: c, opts: opts, key: key}, nil
}

// paperCircuits are the paper benchmarks that compile in seconds; the
// other six each ran past 180 s.
var paperCircuits = []string{"4gt10-v1_81", "4gt4-v0_73"}

// paperSet builds paper-small: the paper circuits under
// tqec.DefaultOptions(). The inputs are the paper's own and do not depend
// on the workload seed.
func paperSet(tiny bool) ([]item, error) {
	names := paperCircuits
	if tiny {
		names = names[:1]
	}
	items := make([]item, len(names))
	for i, name := range names {
		spec, err := qc.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		c, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		if items[i], err = newItem(c, tqec.DefaultOptions()); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// routeHeavySpec is the random-circuit family of route-heavy.
var routeHeavySpec = qc.BenchmarkSpec{Qubits: 10, Toffolis: 12, NOTs: 4}

// routeHeavyCircuits are the circuit seeds of route-heavy: the first three
// draws of routeHeavySpec. The set is fixed because routing cost over
// random draws is heavy-tailed (see README.md), so it does not depend on
// the workload seed.
var routeHeavyCircuits = []int64{2, 7}

// routeSet builds route-heavy.
func routeSet(tiny bool) ([]item, error) {
	spec := routeHeavySpec
	seeds := routeHeavyCircuits
	if tiny {
		spec = qc.BenchmarkSpec{Qubits: 5, Toffolis: 3, NOTs: 2}
		seeds = seeds[:1]
	}
	items := make([]item, len(seeds))
	for i, seed := range seeds {
		s := spec
		s.Seed = seed
		s.Name = fmt.Sprintf("route-heavy-%d", seed)
		c, err := s.Generate()
		if err != nil {
			return nil, err
		}
		if items[i], err = newItem(c, tqec.DefaultOptions()); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// runPaperSmall drives paper-small.
func runPaperSmall(ctx context.Context, r *run) error {
	return compileWorkload(ctx, r, func() ([]item, error) { return paperSet(r.cfg.tiny) }, 60*time.Second)
}

// runRouteHeavy drives route-heavy.
func runRouteHeavy(ctx context.Context, r *run) error {
	return compileWorkload(ctx, r, func() ([]item, error) { return routeSet(r.cfg.tiny) }, 90*time.Second)
}

// setUp runs build reps times, reports the median as setup_s and returns
// the last result.
func setUp[T any](r *run, reps int, build func() (T, error)) (T, error) {
	var out T
	var times []float64
	for i := 0; i < reps; i++ {
		var err error
		d := timed(func() { out, err = build() })
		if err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
	}
	if !r.cfg.trace {
		r.set("setup_s", "s", median(times))
	}
	return out, nil
}

// compileWorkload measures closed-loop compiles of a fixed set with one
// client, for --seconds, and reports the end-to-end metrics.
func compileWorkload(ctx context.Context, r *run, build func() ([]item, error), deadline time.Duration) error {
	items, err := setUp(r, compileSetupReps, build)
	if err != nil {
		return err
	}
	if r.cfg.trace {
		return tracedPasses(ctx, r, items, deadline)
	}
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	m := measurePasses(ctx, r, items, deadline, budget, 2)
	m.report(r, true)
	setLatencies(r, m.latencies, len(m.passes)*len(items), m.measured)
	return nil
}

// passStats is what measurePasses observed.
type passStats struct {
	passes, allocs, volumes, rss []float64
	// latencies holds each compile's milliseconds by circuit name.
	latencies map[string][]float64
	measured  time.Duration
	// pins holds each item's first result.
	pins []*pinned
}

// measurePasses compiles the whole set once per pass through
// tqec.CompileContext under a per-compile deadline, one compile at a time.
// Passes repeat until the next one would overrun budget, with at least
// minPasses. Each compile starts from a collected heap returned to the
// OS, so its time, allocation and peak resident set do not depend on the
// garbage of the one before; a pass's time is the sum of its compiles'.
// Each result is checked outside the timed region.
func measurePasses(ctx context.Context, r *run, items []item, deadline, budget time.Duration, minPasses int) *passStats {
	m := &passStats{latencies: map[string][]float64{}, pins: make([]*pinned, len(items))}
	var last time.Duration
	for len(m.passes) < minPasses || m.measured+last <= budget {
		var alloc uint64
		var peak float64
		last = 0
		for i, it := range items {
			rss := startRSS()
			a0 := totalAlloc()
			var res *tqec.Result
			d := timed(func() { res = compileOnce(ctx, r, it, deadline) })
			alloc += totalAlloc() - a0
			peak = max(peak, rss.finish())
			last += d
			m.latencies[it.c.Name] = append(m.latencies[it.c.Name], ms(d))
			if res == nil {
				continue
			}
			checkResult(r, it, res, &m.pins[i])
			if len(m.passes) == 0 {
				m.volumes = append(m.volumes, float64(res.Volume))
			}
		}
		m.allocs = append(m.allocs, mb(alloc))
		m.rss = append(m.rss, peak)
		m.measured += last
		m.passes = append(m.passes, last.Seconds())
	}
	fmt.Printf("perfbench: %d pass(es) of %d compile(s), pass seconds %v, alloc MB %v, peak RSS MB %v\n", len(m.passes), len(items), m.passes, m.allocs, m.rss)
	return m
}

// report sets compile_s, alloc_mb and volume_geomean, and for a compile
// workload peak_rss_mb.
func (m *passStats) report(r *run, withRSS bool) {
	r.set("compile_s", "s", median(m.passes))
	r.set("alloc_mb", "MB", median(m.allocs))
	if withRSS {
		r.set("peak_rss_mb", "MB", quantile(m.rss, 1))
	}
	r.set("volume_geomean", "cells", geomean(m.volumes))
}

// setLatencies reports the latency of operations that compile (misses)
// and the completed operations per second. A percentile is taken per
// circuit and combined by geometric mean over circuits, so a workload
// mixing a fast and a slow circuit does not report a median that falls
// between them.
func setLatencies(r *run, byCircuit map[string][]float64, completed int, elapsed time.Duration) {
	var p50, p90 []float64
	for _, lat := range byCircuit {
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
	}
	r.set("miss_p50_ms", "ms", geomean(p50))
	r.set("miss_p90_ms", "ms", geomean(p90))
	r.set("svc_rps", "1/s", float64(completed)/elapsed.Seconds())
}

// compileOnce runs one untraced compile under the deadline. A compile
// error or timeout is recorded as a failure and yields nil.
func compileOnce(ctx context.Context, r *run, it item, deadline time.Duration) *tqec.Result {
	cctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	r.attempt(1)
	res, err := tqec.CompileContext(cctx, it.c, it.opts)
	if err != nil {
		r.fail("compile %s (seed %d): %v", it.c.Name, it.opts.Place.Seed, err)
		return nil
	}
	return res
}

// pinned is the first result of an item in a run; every repeat must
// reproduce it.
type pinned struct {
	volume  int
	dims    [3]int
	payload []byte
}

// checkResult runs the structural output checks on one compiled result
// and pins its Volume, Dims and service payload against the item's first
// result in the run. Degraded routing is not a failure here; it shows in
// the fallback and unrouted net counts.
func checkResult(r *run, it item, res *tqec.Result, ref **pinned) {
	name := fmt.Sprintf("%s (seed %d)", it.c.Name, it.opts.Place.Seed)
	for _, c := range []struct {
		name string
		fn   func(*tqec.Result) error
	}{
		{"BridgeReconstructable", check.BridgeReconstructable},
		{"PlacementLegal", check.PlacementLegal},
		{"RoutingStructurallySound", check.RoutingStructurallySound},
		{"VolumeAccounting", check.VolumeAccounting},
	} {
		r.attempt(1)
		if err := c.fn(res); err != nil {
			r.fail("check.%s on %s: %v", c.name, name, err)
		}
	}
	r.attempt(1)
	payload, err := server.EncodeResult(it.key, res)
	if err != nil {
		r.fail("encode %s: %v", name, err)
		return
	}
	p := &pinned{volume: res.Volume, dims: [3]int{res.Dims.W, res.Dims.H, res.Dims.D}, payload: payload}
	switch {
	case *ref == nil:
		*ref = p
	case p.volume != (*ref).volume || p.dims != (*ref).dims:
		r.fail("%s: volume/dims %d %v differ from the run's first compile %d %v", name, p.volume, p.dims, (*ref).volume, (*ref).dims)
	case !bytes.Equal(p.payload, (*ref).payload):
		r.fail("%s: payload differs from the run's first compile", name)
	}
}
