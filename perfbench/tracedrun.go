package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/tqec"
)

// tracedPasses runs the compile workloads under --trace 1. Each pass
// compiles every item twice: untraced through tqec.CompileContext and
// traced layer by layer. The two payloads must be byte-identical. Per-layer
// metrics are medians over passes of per-pass sums; the tracing overhead is
// the traced minus the untraced pass time.
func tracedPasses(ctx context.Context, r *run, items []item, deadline time.Duration) error {
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	ref := make([]*pinned, len(items))
	var passes [][]*tracedResult
	var untraced, traced []float64
	var keyMS, encMS []float64
	var measured, last time.Duration
	for len(passes) == 0 || measured+last <= budget {
		var tu, tt time.Duration
		var pass []*tracedResult
		runtime.GC()
		for i, it := range items {
			var plain *tqec.Result
			tu += timed(func() { plain = compileOnce(ctx, r, it, deadline) })
			var tres *tracedResult
			tt += timed(func() { tres = compileTracedOnce(ctx, r, it, deadline) })
			keyMS = append(keyMS, timeCacheKey(r, it))
			if plain == nil || tres == nil {
				continue
			}
			pass = append(pass, tres)
			checkResult(r, it, tres.res, &ref[i])
			var a, b []byte
			encMS = append(encMS, timeEncode(r, it, plain, &a), timeEncode(r, it, tres.res, &b))
			r.attempt(1)
			if a != nil && b != nil && !bytes.Equal(a, b) {
				r.fail("%s (seed %d): traced payload differs from tqec.CompileContext's", it.c.Name, it.opts.Place.Seed)
			}
		}
		last = tu + tt
		measured += last
		untraced = append(untraced, tu.Seconds())
		traced = append(traced, tt.Seconds())
		passes = append(passes, pass)
	}
	fmt.Printf("perfbench: %d traced pass(es); untraced %v s, traced %v s\n", len(passes), untraced, traced)
	setCompileLayers(r, passes)
	r.set("cachekey.time_ms", "ms", median(keyMS))
	r.set("encode.time_ms", "ms", median(encMS))
	setOverhead(r, untraced, traced)
	// The server never runs here: its layers report 0.
	setServiceLayers(r, &traffic{}, server.MetricsSnapshot{}, &timedJournal{})
	return nil
}

// compileTracedOnce runs one traced compile under the deadline; an error
// is a failure and yields nil.
func compileTracedOnce(ctx context.Context, r *run, it item, deadline time.Duration) *tracedResult {
	cctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	r.attempt(1)
	tres, err := compileTraced(cctx, r.tr, it.c, it.opts)
	if err != nil {
		r.fail("traced compile %s (seed %d): %v", it.c.Name, it.opts.Place.Seed, err)
		return nil
	}
	return tres
}

// timeCacheKey calls tqec.CacheKey in a span, checks it against the
// item's key and returns the call's milliseconds.
func timeCacheKey(r *run, it item) float64 {
	var key string
	var err error
	s := r.tr.do(r.tr.newID(), 0, "tqec.CacheKey", false, func() { key, err = tqec.CacheKey(it.c, it.opts) })
	r.attempt(1)
	if err != nil || key != it.key {
		r.fail("tqec.CacheKey of %s: %q, %v; want %q", it.c.Name, key, err, it.key)
	}
	return ms(s.dur())
}

// timeEncode calls server.EncodeResult in a span, storing the payload in
// *out, and returns the call's milliseconds.
func timeEncode(r *run, it item, res *tqec.Result, out *[]byte) float64 {
	var err error
	s := r.tr.do(r.tr.newID(), 0, "server.EncodeResult", false, func() { *out, err = server.EncodeResult(it.key, res) })
	r.attempt(1)
	if err != nil {
		r.fail("encode %s: %v", it.c.Name, err)
		*out = nil
	}
	return ms(s.dur())
}

// setOverhead reports the traced and untraced compile time of the set and
// their difference.
func setOverhead(r *run, untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	r.set("trace.untraced_compile_s", "s", u)
	r.set("trace.traced_compile_s", "s", t)
	r.set("trace.overhead_s", "s", t-u)
}

// compileLayers lists the pipeline layers by span name and metric prefix.
var compileLayers = []struct{ span, prefix string }{
	{"decompose.Decompose", "decompose"},
	{"zx.Optimize", "zx"},
	{"icm.FromDecomposed", "icm"},
	{"canonical.Build", "canonical"},
	{"modular.BuildWithGap", "modular"},
	{"bridge.RunContext", "bridge"},
	{"cluster.Build", "cluster"},
	{"place.RunContext", "place"},
	{"route.RunContext", "route"},
}

// setCompileLayers reports the pipeline layers' metrics: for each pass the
// values are summed over the set's compiles, and each metric is the median
// over passes.
func setCompileLayers(r *run, passes [][]*tracedResult) {
	type spec struct{ name, unit string }
	var order []spec
	per := map[string][]float64{}
	for _, pass := range passes {
		sums := map[string]float64{}
		add := func(name, unit string, v float64) {
			if _, ok := per[name]; !ok {
				per[name] = nil
				order = append(order, spec{name, unit})
			}
			sums[name] += v
		}
		var zxRan, zxApplied, nets, firstPass float64
		for _, tr := range pass {
			res := tr.res
			for _, l := range compileLayers {
				lt := tr.layers[l.span]
				add(l.prefix+".time_ms", "ms", ms(lt.d))
				add(l.prefix+".alloc_mb", "MB", mb(lt.alloc))
			}
			add("place.check_ms", "ms", ms(tr.layers["place.Check"].d))
			add("zx.gates_before", "count", float64(tr.zx.GatesBefore))
			add("zx.gates_after", "count", float64(tr.zx.GatesAfter))
			if tr.zxRan {
				zxRan++
				if tr.zx.Applied {
					zxApplied++
				}
			}
			add("icm.cnots", "count", float64(res.ICM.Stats().CNOTs))
			add("canonical.volume", "cells", float64(res.CanonicalVolume))
			add("modular.nets", "count", float64(len(res.Netlist.Segments)))
			add("bridge.merges", "count", float64(res.Bridging.Merges))
			add("bridge.nets_after", "count", float64(len(res.Bridging.Nets)))
			add("cluster.supers", "count", float64(len(res.Clustering.Supers)))
			add("place.attempts", "count", float64(res.PlacementAttempts))
			add("place.wirelength", "cells", float64(res.Placement.WireLength))
			rt := res.Routing
			st := rt.Stats
			routeMS := ms(tr.layers["route.RunContext"].d)
			add("route.search_ms", "ms", ms(st.Search))
			add("route.commit_ms", "ms", ms(st.Commit))
			add("route.ripup_ms", "ms", ms(st.RipUp))
			add("route.other_ms", "ms", routeMS-ms(st.Search+st.Commit+st.RipUp))
			add("route.searches", "count", float64(st.Searches))
			add("route.ripups", "count", float64(rt.RippedUp))
			add("route.iterations", "count", float64(rt.Iterations))
			add("route.fallback_nets", "count", float64(len(rt.FallbackNets)))
			add("route.unrouted_nets", "count", float64(len(rt.Failed)))
			nets += float64(len(res.Bridging.Nets))
			firstPass += float64(rt.FirstPassRouted)
		}
		add("zx.applied_frac", "ratio", ratio(zxApplied, zxRan))
		add("route.first_pass_frac", "ratio", ratio(firstPass, nets))
		for name, v := range sums {
			per[name] = append(per[name], v)
		}
	}
	for _, s := range order {
		r.set(s.name, s.unit, median(per[s.name]))
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
