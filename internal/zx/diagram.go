package zx

import "repro/internal/qc"

// vkind is a spider color. A Z-spider sits on a CNOT control or carries a
// diagonal phase gate; an X-spider sits on a CNOT target or carries an
// X-basis phase gate.
type vkind uint8

const (
	vZ vkind = iota // Z-spider
	vX              // X-spider
)

// zPhaseUnits maps a decomposed diagonal gate kind to its Z-spider phase in
// π/4 units, or -1 when the kind is not a Z-phase gate.
func zPhaseUnits(k qc.GateKind) int {
	switch k {
	case qc.GateT:
		return 1
	case qc.GateP:
		return 2
	case qc.GateZ:
		return 4
	case qc.GatePdag:
		return 6
	case qc.GateTdag:
		return 7
	}
	return -1
}

// xPhaseUnits maps a decomposed X-basis gate kind to its X-spider phase in
// π/4 units, or -1 when the kind is not an X-phase gate.
func xPhaseUnits(k qc.GateKind) int {
	switch k {
	case qc.GateV:
		return 2
	case qc.GateNOT:
		return 4
	case qc.GateVdag:
		return 6
	}
	return -1
}
