package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// primal-group size cap, the routing margin around placed blocks, the tier
// count of the 2.5D architecture, and friend-net awareness. Each reports
// the resulting space-time volume so sweeps expose the trade-off.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/qc"
	"repro/internal/route"
	"repro/tqec"
)

func ablationCompile(b *testing.B, mutate func(*tqec.Options)) *tqec.Result {
	b.Helper()
	spec, err := qc.BenchmarkByName(benchmarkCircuit)
	if err != nil {
		b.Fatal(err)
	}
	opts := tqec.DefaultOptions()
	opts.Place.Seed = benchSeed
	if mutate != nil {
		mutate(&opts)
	}
	res, err := tqec.CompileContext(context.Background(), mustGen(b, spec), opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationGroupSize sweeps the primal-group super-module size cap
// (Section III-C1's "upper limit").
func BenchmarkAblationGroupSize(b *testing.B) {
	for _, size := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("max%d", size), func(b *testing.B) {
			var vol, nodes int
			for i := 0; i < b.N; i++ {
				res := ablationCompile(b, func(o *tqec.Options) { o.MaxGroupSize = size })
				vol = res.Volume
				nodes = res.Clustering.Stats().Nodes
			}
			b.ReportMetric(float64(vol), "volume")
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkAblationMargin sweeps the per-block routing margin ("each
// module is slightly expanded to preserve some routing regions").
func BenchmarkAblationMargin(b *testing.B) {
	for _, margin := range []int{1, 2} {
		b.Run(fmt.Sprintf("margin%d", margin), func(b *testing.B) {
			var vol, failed int
			for i := 0; i < b.N; i++ {
				res := ablationCompile(b, func(o *tqec.Options) { o.Place.Margin = margin })
				vol = res.Volume
				failed = len(res.Routing.Failed)
			}
			b.ReportMetric(float64(vol), "volume")
			b.ReportMetric(float64(failed), "unrouted")
		})
	}
}

// BenchmarkAblationTiers sweeps the 2.5D tier count against the automatic
// cube-root heuristic (tiers=0).
func BenchmarkAblationTiers(b *testing.B) {
	for _, tiers := range []int{0, 4, 8, 16} {
		b.Run(fmt.Sprintf("tiers%d", tiers), func(b *testing.B) {
			var vol int
			for i := 0; i < b.N; i++ {
				vol = ablationCompile(b, func(o *tqec.Options) { o.Place.Tiers = tiers }).Volume
			}
			b.ReportMetric(float64(vol), "volume")
		})
	}
}

// BenchmarkAblationFriendNets routes one placement with and without
// friend-net awareness (the paper's claim that bridging and friend nets
// compound).
func BenchmarkAblationFriendNets(b *testing.B) {
	res := ablationCompile(b, nil)
	for _, friendly := range []bool{true, false} {
		name := "on"
		if !friendly {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var cells, failed int
			for i := 0; i < b.N; i++ {
				o := route.DefaultOptions()
				o.FriendNets = friendly
				r, err := route.Run(res.Placement, o)
				if err != nil {
					b.Fatal(err)
				}
				cells = r.WireCells()
				failed = len(r.Failed)
			}
			b.ReportMetric(float64(cells), "wire-cells")
			b.ReportMetric(float64(failed), "unrouted")
		})
	}
}

// BenchmarkAblationPrimalGap sweeps the primal-bridging gap extension
// (gap=1 is the paper's dual-only bridging; larger gaps fuse primal-loop
// stretches across idle slots).
func BenchmarkAblationPrimalGap(b *testing.B) {
	for _, gap := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("gap%d", gap), func(b *testing.B) {
			var vol, modules int
			for i := 0; i < b.N; i++ {
				res := ablationCompile(b, func(o *tqec.Options) { o.PrimalGap = gap })
				vol = res.Volume
				modules = len(res.Netlist.Modules)
			}
			b.ReportMetric(float64(vol), "volume")
			b.ReportMetric(float64(modules), "modules")
		})
	}
}

// BenchmarkAblationWireRecycling measures the wire-recycling analysis
// extension: how far left-edge recycling shrinks the ICM line count.
func BenchmarkAblationWireRecycling(b *testing.B) {
	res := ablationCompile(b, nil)
	var wires int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, wires = res.ICM.RecycleWires()
	}
	b.ReportMetric(float64(len(res.ICM.Lines)), "lines")
	b.ReportMetric(float64(wires), "wires")
}
