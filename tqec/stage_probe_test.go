package tqec

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestStageProbe (enabled via TQEC_PROBE=benchname) times pipeline stages
// on one benchmark. Dev tool, skipped by default.
func TestStageProbe(t *testing.T) {
	name := os.Getenv("TQEC_PROBE")
	if name == "" {
		t.Skip("set TQEC_PROBE=<benchmark> to run")
	}
	opts := DefaultOptions()
	opts.Place.Seed = 3
	start := time.Now()
	res, err := CompileBenchmark(context.Background(), name, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("total %.1fs; breakdown:\n%s", time.Since(start).Seconds(), res.Breakdown)
	t.Logf("dims %v, %d/%d nets routed, %d rip-ups, first pass %d",
		res.Dims, len(res.Routing.Routes), len(res.Bridging.Nets),
		res.Routing.RippedUp, res.Routing.FirstPassRouted)
}
