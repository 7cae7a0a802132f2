package zx

import (
	"fmt"

	"repro/internal/qc"
)

// pdag and vdag build the dagger gates the qc package has kinds but no
// constructors for.
func pdag(t int) qc.Gate { return qc.Gate{Kind: qc.GatePdag, Targets: []int{t}} }
func vdag(t int) qc.Gate { return qc.Gate{Kind: qc.GateVdag, Targets: []int{t}} }

// lowerZPhase expands Z^(k/4) into the decomposed diagonal gate set,
// preferring forms whose ICM cost is lowest: Pauli Z is a free frame
// update, so 3π/4 and 5π/4 are written as Z plus a single T-class gate
// rather than three T gates.
func lowerZPhase(q, k int) ([]qc.Gate, error) {
	switch k & 7 {
	case 0:
		return nil, nil
	case 1:
		return []qc.Gate{qc.T(q)}, nil
	case 2:
		return []qc.Gate{qc.P(q)}, nil
	case 3:
		return []qc.Gate{qc.Z(q), qc.Tdag(q)}, nil
	case 4:
		return []qc.Gate{qc.Z(q)}, nil
	case 5:
		return []qc.Gate{qc.Z(q), qc.T(q)}, nil
	case 6:
		return []qc.Gate{pdag(q)}, nil
	case 7:
		return []qc.Gate{qc.Tdag(q)}, nil
	}
	return nil, fmt.Errorf("zx: phase %d out of range", k)
}
