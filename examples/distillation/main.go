// Distillation: automate the compression Fowler & Devitt performed by hand
// — run the |Y⟩ and |A⟩ state distillation circuits (Figs. 6/7 of the
// paper) through the automated bridge-compression flow and compare against
// their manually optimized boxes (18 and 192 cells).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/distill"
	"repro/internal/icm"
	"repro/tqec"
)

func main() {
	run("Y", distill.YCircuit(), distill.YBoxVolume)
	fmt.Println()
	run("A", distill.ACircuit(), distill.ABoxVolume)
}

func run(name string, ic *icm.Circuit, manual int) {
	opts := tqec.DefaultOptions()
	opts.Place.Seed = 7
	// The noisy input states ARE the injections here; no further
	// distillation boxes feed them.
	opts.NoBoxes = true
	res, err := tqec.CompileICMContext(context.Background(), ic, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		log.Fatal(err)
	}
	s := ic.Stats()
	fmt.Printf("|%s> distillation: %d lines, %d CNOTs, %d noisy injections\n",
		name, s.Lines, s.CNOTs, s.NumY+s.NumA)
	fmt.Printf("  canonical volume:        %d\n", res.CanonicalVolume)
	fmt.Printf("  automated compression:   %s (%.1fx vs canonical)\n",
		res.Dims, float64(res.CanonicalVolume)/float64(res.Volume))
	fmt.Printf("  manual (Fowler-Devitt):  %d\n", manual)
	fmt.Printf("  bridging merged %d of %d dual loops; %d/%d nets routed\n",
		res.Bridging.Merges, len(res.Netlist.Loops),
		len(res.Routing.Routes), len(res.Bridging.Nets))
	fmt.Printf("  (hand optimization still wins at this scale — the automated flow's\n")
	fmt.Printf("   module granularity and routing margins cost a constant factor that\n")
	fmt.Printf("   only amortizes on the paper's benchmark-sized circuits)\n")
}
