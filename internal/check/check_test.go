package check

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bridge"
	"repro/internal/geom"
	"repro/internal/qc"
	"repro/internal/route"
	"repro/tqec"
)

var (
	benchOnce sync.Once
	benchRes  *tqec.Result
	benchErr  error
)

// compiledBenchmark compiles the smallest paper benchmark once and shares
// the result across tests; callers must not mutate it (corruption tests
// work on copies).
func compiledBenchmark(t *testing.T) *tqec.Result {
	t.Helper()
	benchOnce.Do(func() {
		spec, err := qc.BenchmarkByName("4gt10-v1_81")
		if err != nil {
			benchErr = err
			return
		}
		c, err := spec.Generate()
		if err != nil {
			benchErr = err
			return
		}
		benchRes, benchErr = tqec.CompileContext(context.Background(), c, tqec.FastOptions())
	})
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	return benchRes
}

func TestRunBenchmarkAllPasses(t *testing.T) {
	rep, err := RunBenchmark(context.Background(), "4gt10-v1_81", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("report not clean:\n%s", rep)
	}
	want := []string{
		"bridge-reconstructable", "placement-legal", "routing-legal", "volume-accounting",
		"diff-chains", "diff-serial-routing", "diff-cache-bytes", "diff-bridging", "diff-zx",
	}
	if len(rep.Passes) != len(want) {
		t.Fatalf("got %d passes, want %d:\n%s", len(rep.Passes), len(want), rep)
	}
	for i, name := range want {
		if rep.Passes[i].Name != name {
			t.Errorf("pass %d = %q, want %q", i, rep.Passes[i].Name, name)
		}
	}
	if !strings.Contains(rep.String(), "volume-accounting") {
		t.Error("report rendering lost a pass name")
	}
}

func TestInvariantsPassOnBenchmark(t *testing.T) {
	res := compiledBenchmark(t)
	for name, pass := range map[string]func(*tqec.Result) error{
		"bridge":    BridgeReconstructable,
		"placement": PlacementLegal,
		"routing":   RoutingLegal,
		"volume":    VolumeAccounting,
	} {
		if err := pass(res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestBridgeReconstructableCatchesCorruption corrupts independent aspects
// of a genuine bridging result and checks each is detected.
func TestBridgeReconstructableCatchesCorruption(t *testing.T) {
	res := compiledBenchmark(t)

	t.Run("merge-counter", func(t *testing.T) {
		c := *res
		br := *res.Bridging
		br.Merges++
		c.Bridging = &br
		if BridgeReconstructable(&c) == nil {
			t.Fatal("inflated merge counter not detected")
		}
	})
	t.Run("repeated-pin", func(t *testing.T) {
		c := *res
		br := *res.Bridging
		br.Chains = append([][]*bridge.Chain(nil), res.Bridging.Chains...)
		lp := 0
		orig := br.Chains[lp][0]
		bad := &bridge.Chain{Pins: append(append([]int(nil), orig.Pins...), orig.Pins[0])}
		br.Chains[lp] = append([]*bridge.Chain{bad}, br.Chains[lp][1:]...)
		c.Bridging = &br
		if BridgeReconstructable(&c) == nil {
			t.Fatal("repeated pin in a chain not detected")
		}
	})
	t.Run("net-to-self", func(t *testing.T) {
		c := *res
		br := *res.Bridging
		br.Nets = append([]bridge.Net(nil), res.Bridging.Nets...)
		br.Nets[0].PinB = br.Nets[0].PinA
		c.Bridging = &br
		if BridgeReconstructable(&c) == nil {
			t.Fatal("self-loop net not detected")
		}
	})
}

func TestPlacementLegalCatchesCorruption(t *testing.T) {
	res := compiledBenchmark(t)
	if len(res.Placement.Pos) < 2 {
		t.Skip("needs at least two supers")
	}
	c := *res
	// Collapse two supers onto the same origin: overlap (same tier) or a
	// broken tier plane (different tiers) — either way illegal.
	pl2 := *res.Placement
	pl2.Pos = append(pl2.Pos[:0:0], res.Placement.Pos...)
	pl2.Pos[0] = pl2.Pos[1]
	c.Placement = &pl2
	if PlacementLegal(&c) == nil {
		t.Fatal("collapsed supers not detected")
	}
}

func TestRoutingLegalCatchesCorruption(t *testing.T) {
	res := compiledBenchmark(t)
	if len(res.Routing.Routes) == 0 {
		t.Skip("benchmark routed no nets")
	}
	t.Run("dropped-route", func(t *testing.T) {
		c := *res
		r := *res.Routing
		r.Routes = copyRoutes(res.Routing)
		for id := range r.Routes {
			delete(r.Routes, id)
			break
		}
		c.Routing = &r
		if RoutingLegal(&c) == nil {
			t.Fatal("dropped route not detected")
		}
	})
	t.Run("disconnected-path", func(t *testing.T) {
		c := *res
		r := *res.Routing
		r.Routes = copyRoutes(res.Routing)
		for id, p := range r.Routes {
			if len(p) >= 3 {
				// Excise an interior cell: the walk must notice the gap.
				q := append(append(p[:0:0], p[:1]...), p[2:]...)
				r.Routes[id] = q
				c.Routing = &r
				if RoutingLegal(&c) == nil {
					t.Fatal("disconnected path not detected")
				}
				return
			}
		}
		t.Skip("no path long enough to cut")
	})
}

func TestVolumeAccountingCatchesCorruption(t *testing.T) {
	res := compiledBenchmark(t)
	t.Run("volume", func(t *testing.T) {
		c := *res
		c.Volume++
		if VolumeAccounting(&c) == nil {
			t.Fatal("inflated volume not detected")
		}
	})
	t.Run("bounds", func(t *testing.T) {
		c := *res
		r := *res.Routing
		r.Bounds = res.Routing.Bounds.Expand(1)
		c.Routing = &r
		if VolumeAccounting(&c) == nil {
			t.Fatal("inflated bounds not detected")
		}
	})
	t.Run("box-volume", func(t *testing.T) {
		c := *res
		c.BoxVolume++
		if VolumeAccounting(&c) == nil {
			t.Fatal("wrong box volume not detected")
		}
	})
}

// copyRoutes clones a routing result's path map so tests can corrupt it
// without touching the shared benchmark result.
func copyRoutes(r *route.Result) map[int]geom.Path {
	out := make(map[int]geom.Path, len(r.Routes))
	for id, p := range r.Routes {
		out[id] = append(p[:0:0], p...)
	}
	return out
}

func TestDiffSerialRoutingDetectsDivergence(t *testing.T) {
	res := compiledBenchmark(t)
	// A FailNet hook that fails net 0 only on the serial run makes the two
	// modes genuinely diverge; the differential must notice.
	opts := tqec.FastOptions()
	var calls atomic.Int32
	opts.Route.Serial = false
	opts.Route.FailNet = func(id int) bool {
		return id == 0 && calls.Add(1) == 1
	}
	if err := DiffSerialRouting(context.Background(), res, opts); err == nil {
		t.Fatal("asymmetric fault injection not detected")
	}
}

func TestShrinkFindsMinimalCircuit(t *testing.T) {
	c := qc.New("shrink-me", 6)
	c.Append(qc.NOT(4), qc.CNOT(0, 3), qc.Toffoli(0, 1, 2), qc.NOT(5), qc.CNOT(1, 2), qc.NOT(0))
	failing := func(_ context.Context, cand *qc.Circuit) bool {
		return cand.CountKind(qc.GateToffoli) >= 1
	}
	got := Shrink(context.Background(), c, 0, failing)
	if !failing(context.Background(), got) {
		t.Fatal("shrunk circuit no longer fails")
	}
	if got.NumGates() != 1 {
		t.Fatalf("shrunk to %d gates, want 1 (%v)", got.NumGates(), got.Gates)
	}
	if got.NumQubits() != 3 {
		t.Fatalf("shrunk to %d qubits, want 3", got.NumQubits())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("shrunk circuit invalid: %v", err)
	}
	if c.NumGates() != 6 || c.NumQubits() != 6 {
		t.Fatal("shrink mutated its input")
	}
}

func TestShrinkRespectsProbeBudget(t *testing.T) {
	c := qc.New("budget", 3)
	for i := 0; i < 12; i++ {
		c.Append(qc.NOT(i % 3))
	}
	probes := 0
	got := Shrink(context.Background(), c, 5, func(_ context.Context, cand *qc.Circuit) bool {
		probes++
		return true
	})
	if probes > 5 {
		t.Fatalf("ran %d probes, budget was 5", probes)
	}
	if got.NumGates() == 0 {
		t.Fatal("shrink removed every gate")
	}
}

// TestDiffBridgingSimsTinyCircuit checks the bridging differential's
// simulation branch actually runs on circuits small enough to simulate.
func TestDiffBridgingSimsTinyCircuit(t *testing.T) {
	c := qc.New("tiny", 3)
	c.Append(qc.CNOT(0, 1), qc.NOT(2), qc.CNOT(1, 2), qc.CNOT(0, 2))
	rep, err := Run(context.Background(), c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("report not clean:\n%s", rep)
	}
	for _, p := range rep.Passes {
		if p.Name == "diff-bridging" {
			if p.Detail != "sim verified" {
				t.Fatalf("diff-bridging detail = %q, want simulation to run", p.Detail)
			}
			return
		}
	}
	t.Fatal("diff-bridging pass missing")
}

// TestDiffChainsMatchesPrimary sanity-checks the placement differential
// runs standalone against the shared benchmark result.
func TestDiffChainsMatchesPrimary(t *testing.T) {
	res := compiledBenchmark(t)
	if err := DiffChains(context.Background(), res, tqec.FastOptions(), 2); err != nil {
		t.Fatal(err)
	}
}
