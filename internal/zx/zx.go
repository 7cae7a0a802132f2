// Package zx implements a ZX-calculus pre-compression pass over
// decomposed circuits. The CNOT+phase structure is read as a
// wire-structured ZX diagram: every CNOT is a plain edge between a
// Z-spider on its control wire and an X-spider on its target wire, and
// every phase gate is a spider on its own wire. Same-color spider fusion
// along a wire folds phases through CNOT controls and targets, the Hopf
// law cancels CNOT pairs, and identity spiders are dropped. Because every
// spider keeps its wire and its position in the gate list, the simplified
// diagram reads straight back into a {CNOT, P, V, T} circuit, from which
// the ICM is re-derived, with no graph-like extraction step.
//
// The pass is sound by construction on the rewrite side (every rule is a
// ZX-calculus equality, applied only when its preconditions hold) and
// self-checking on the cost side: Optimize compares the canonical
// space-time volume of the rewritten circuit against the original and
// keeps the original unless the rewrite is a strict improvement, so the
// pipeline's compression is never made worse.
package zx

import (
	"fmt"

	"repro/internal/canonical"
	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/qc"
)

// Stats reports what one Optimize call did.
type Stats struct {
	// Before and After are the gate-population counts of the input and of
	// whichever circuit Optimize returned.
	Before, After decompose.Stats
	// GatesBefore and GatesAfter are total gate counts.
	GatesBefore, GatesAfter int
	// CanonicalBefore and CanonicalAfter are the canonical space-time
	// volumes used for the keep/fall-back decision.
	CanonicalBefore, CanonicalAfter int
	// Rewrites is the number of diagram rewrites applied.
	Rewrites int
	// Applied reports whether the rewritten circuit replaced the input.
	Applied bool
	// FallbackReason is empty when Applied, and otherwise says why the
	// original circuit was kept.
	FallbackReason string
}

// canonicalVolume prices a decomposed circuit the way the downstream
// pipeline does: ICM conversion followed by the canonical layout.
func canonicalVolume(c *qc.Circuit) (int, error) {
	ic, err := icm.FromDecomposed(c)
	if err != nil {
		return 0, err
	}
	desc, err := canonical.Build(ic)
	if err != nil {
		return 0, err
	}
	return desc.Volume(), nil
}

// Optimize rewrites a decomposed circuit through the ZX pass and returns
// whichever of {original, rewritten} has the smaller canonical space-time
// volume, with ties kept on the original. The returned circuit is always
// valid input for icm.FromDecomposed. An error is returned only when the
// input itself is not a decomposed circuit; internal rewrite failures
// fall back to the original and are reported in Stats.FallbackReason.
func Optimize(c *qc.Circuit) (*qc.Circuit, Stats, error) {
	var st Stats
	before, err := decompose.Count(c)
	if err != nil {
		return nil, st, fmt.Errorf("zx: input is not a decomposed circuit: %w", err)
	}
	volBefore, err := canonicalVolume(c)
	if err != nil {
		return nil, st, fmt.Errorf("zx: input has no canonical layout: %w", err)
	}
	st.Before, st.After = before, before
	st.GatesBefore, st.GatesAfter = len(c.Gates), len(c.Gates)
	st.CanonicalBefore, st.CanonicalAfter = volBefore, volBefore

	red, rewrites, err := reduceLight(c)
	if err != nil {
		st.FallbackReason = err.Error()
		return c, st, nil
	}
	volAfter, err := canonicalVolume(red)
	if err != nil {
		st.FallbackReason = fmt.Sprintf("rewritten circuit not priceable: %v", err)
		return c, st, nil
	}
	st.Rewrites = rewrites
	if volAfter >= volBefore {
		st.FallbackReason = fmt.Sprintf("no improvement (canonical volume %d -> %d)", volBefore, volAfter)
		return c, st, nil
	}
	after, err := decompose.Count(red)
	if err != nil {
		st.FallbackReason = fmt.Sprintf("rewritten circuit left the gate set: %v", err)
		return c, st, nil
	}
	st.After = after
	st.GatesAfter = len(red.Gates)
	st.CanonicalAfter = volAfter
	st.Applied = true
	return red, st, nil
}
