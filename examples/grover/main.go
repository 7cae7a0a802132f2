// Grover: compile one iteration of Grover search on n qubits — the
// unstructured-database-search workload the paper's introduction motivates
// — through the bridge-based compression flow, and report the fault-
// tolerant resource estimate (T count, distillation volume, compressed
// space-time volume).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/qc"
	"repro/tqec"
)

// groverIteration builds one Grover iteration marking the all-ones item:
// oracle (multi-controlled Z up to basis change) followed by the diffusion
// operator, everything expressed over the H/X/CNOT/Toffoli/MCT vocabulary
// the decomposer lowers to the TQEC gate set.
func groverIteration(n int) *qc.Circuit {
	c := qc.New(fmt.Sprintf("grover%d", n), n)
	// Initial superposition.
	for q := 0; q < n; q++ {
		c.Append(qc.H(q))
	}
	// Oracle for |11…1⟩: Z on the last qubit controlled on the rest,
	// via H-conjugated (multi-controlled) NOT.
	mcx := func() {
		switch n {
		case 2:
			c.Append(qc.CNOT(0, 1))
		case 3:
			c.Append(qc.Toffoli(0, 1, 2))
		default:
			ctrls := make([]int, n-1)
			for i := range ctrls {
				ctrls[i] = i
			}
			c.Append(qc.MCT(ctrls, n-1))
		}
	}
	c.Append(qc.H(n - 1))
	mcx()
	c.Append(qc.H(n - 1))
	// Diffusion: H X (controlled-Z) X H on every qubit.
	for q := 0; q < n; q++ {
		c.Append(qc.H(q), qc.NOT(q))
	}
	c.Append(qc.H(n - 1))
	mcx()
	c.Append(qc.H(n - 1))
	for q := 0; q < n; q++ {
		c.Append(qc.NOT(q), qc.H(q))
	}
	return c
}

func main() {
	n := flag.Int("qubits", 3, "search register width")
	seed := flag.Int64("seed", 1, "placement seed")
	flag.Parse()
	if *n < 2 {
		log.Fatal("need at least 2 qubits")
	}

	circuit := groverIteration(*n)
	fmt.Printf("Grover iteration on %d qubits: %d gates, logical depth %d\n",
		*n, circuit.NumGates(), circuit.Depth())

	opts := tqec.DefaultOptions()
	opts.Place.Seed = *seed
	res, err := tqec.CompileContext(context.Background(), circuit, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		log.Fatal(err)
	}

	s := res.ICM.Stats()
	fmt.Printf("fault-tolerant cost: T count %d, %d |A⟩ + %d |Y⟩ distillations (box volume %d)\n",
		res.Decomposed.TCount(), s.NumA, s.NumY, res.BoxVolume)
	fmt.Printf("ICM: %d lines, %d CNOTs → %d modules, %d nets after bridging\n",
		s.Lines, s.CNOTs, len(res.Netlist.Modules), len(res.Bridging.Nets))
	fmt.Printf("compressed: %s (canonical + boxes %d, ratio %.2f), %d/%d nets routed\n",
		res.Dims, res.CanonicalVolume+res.BoxVolume, res.CompressionRatio(),
		len(res.Routing.Routes), len(res.Bridging.Nets))
}
