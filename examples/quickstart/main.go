// Quickstart: compress the paper's motivating three-CNOT circuit
// (Figs. 4/5/9) through the full bridge-based compression flow and print
// what every stage did.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/qc"
	"repro/tqec"
)

func main() {
	// The circuit of Fig. 4(a): three CNOT gates over three qubits. Its
	// canonical geometric description has volume 9×3×2 = 54; bridge
	// compression plus topological deformation shrinks it dramatically
	// (the paper reaches 18 with its module geometry).
	c := qc.New("fig4", 3)
	c.Append(
		qc.CNOT(0, 1),
		qc.CNOT(1, 2),
		qc.CNOT(0, 2),
	)

	opts := tqec.DefaultOptions()
	opts.Place.Seed = 42
	res, err := tqec.CompileContext(context.Background(), c, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("input:        %d qubits, %d gates\n", c.NumQubits(), c.NumGates())
	fmt.Printf("ICM:          %d lines, %d CNOTs\n", len(res.ICM.Lines), len(res.ICM.CNOTs))
	fmt.Printf("canonical:    volume %d\n", res.CanonicalVolume)
	fmt.Printf("modularized:  %d modules, %d dual loops\n",
		len(res.Netlist.Modules), len(res.Netlist.Loops))
	fmt.Printf("bridging:     %d merges -> %d bridge structures, %d nets\n",
		res.Bridging.Merges, len(res.Bridging.Structures), len(res.Bridging.Nets))
	fmt.Printf("placement:    %d super-modules on %d tiers\n",
		len(res.Clustering.Supers), res.Placement.Tiers)
	fmt.Printf("routing:      %d/%d nets routed\n",
		len(res.Routing.Routes), len(res.Bridging.Nets))
	fmt.Printf("result:       %s vs canonical %d\n", res.Dims, res.CanonicalVolume)
	fmt.Println()
	fmt.Println("At this toy scale the fixed module geometry (3-cell-wide primal")
	fmt.Println("loops, routing margins, tier pitch) outweighs the savings; run")
	fmt.Println("examples/adder or cmd/tqecc -bench 4gt10-v1_81 for circuits at the")
	fmt.Println("paper's scale, where bridge compression wins by 4-6x.")
}
