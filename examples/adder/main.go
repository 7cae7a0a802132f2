// Adder: build a reversible ripple-carry adder (the workload family behind
// the paper's add16_174 benchmark) from majority/unmajority blocks and
// compress it, comparing the result against the canonical form and the
// Lin et al. [22]-style baselines.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/qc"
	"repro/tqec"
)

// rippleCarryAdder builds the Cuccaro-style in-place adder a+b over two
// n-bit registers plus one carry ancilla: MAJ blocks down, UMA blocks up.
func rippleCarryAdder(n int) *qc.Circuit {
	// Qubit layout: c, a0,b0, a1,b1, ..., a(n-1),b(n-1).
	c := qc.New(fmt.Sprintf("rca%d", n), 1+2*n)
	carry := 0
	a := func(i int) int { return 1 + 2*i }
	b := func(i int) int { return 2 + 2*i }

	maj := func(x, y, z int) {
		c.Append(qc.CNOT(z, y), qc.CNOT(z, x), qc.Toffoli(x, y, z))
	}
	uma := func(x, y, z int) {
		c.Append(qc.Toffoli(x, y, z), qc.CNOT(z, x), qc.CNOT(x, y))
	}

	prev := carry
	for i := 0; i < n; i++ {
		maj(prev, b(i), a(i))
		prev = a(i)
	}
	for i := n - 1; i >= 0; i-- {
		if i == 0 {
			uma(carry, b(i), a(i))
		} else {
			uma(a(i-1), b(i), a(i))
		}
	}
	return c
}

func main() {
	bits := flag.Int("bits", 4, "adder width in bits")
	seed := flag.Int64("seed", 1, "placement seed")
	flag.Parse()

	circuit := rippleCarryAdder(*bits)
	fmt.Printf("%d-bit ripple-carry adder: %d qubits, %d gates (%d Toffoli)\n",
		*bits, circuit.NumQubits(), circuit.NumGates(), circuit.CountKind(qc.GateToffoli))

	opts := tqec.DefaultOptions()
	opts.Place.Seed = *seed
	res, err := tqec.CompileContext(context.Background(), circuit, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		log.Fatal(err)
	}

	// Baselines over the same ICM circuit.
	lin1d, err := baseline.Lin1D(res.ICM)
	if err != nil {
		log.Fatal(err)
	}
	lin2d, err := baseline.Lin2D(res.ICM)
	if err != nil {
		log.Fatal(err)
	}
	box := res.BoxVolume
	canonical := res.CanonicalVolume + box

	fmt.Printf("ICM: %d lines, %d CNOTs, %d |Y>, %d |A>\n",
		len(res.ICM.Lines), len(res.ICM.CNOTs),
		res.ICM.Stats().NumY, res.ICM.Stats().NumA)
	fmt.Printf("%-22s %12s %8s\n", "flow", "volume", "ratio")
	fmt.Printf("%-22s %12d %8.2f\n", "canonical (+boxes)", canonical, float64(canonical)/float64(res.Volume))
	fmt.Printf("%-22s %12d %8.2f\n", "[22] 1D (+boxes)", lin1d.TotalVolume(box), float64(lin1d.TotalVolume(box))/float64(res.Volume))
	fmt.Printf("%-22s %12d %8.2f\n", "[22] 2D (+boxes)", lin2d.TotalVolume(box), float64(lin2d.TotalVolume(box))/float64(res.Volume))
	fmt.Printf("%-22s %12d %8.2f  (%s)\n", "bridge-compressed", res.Volume, 1.0, res.Dims)
	fmt.Printf("routed %d/%d nets, %d unrouted\n",
		len(res.Routing.Routes), len(res.Bridging.Nets), len(res.Routing.Failed))
}
