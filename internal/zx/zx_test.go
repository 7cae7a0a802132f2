package zx

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/qc"
	"repro/internal/sim"
)

// mustEquivalent fails the test unless c1 and c2 implement the same
// unitary up to one global phase.
func mustEquivalent(t *testing.T, n int, c1, c2 *qc.Circuit) {
	t.Helper()
	ok, err := sim.EquivalentUpToPhase(n, c1, c2)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if !ok {
		t.Fatalf("circuits differ:\n  c1 (%d gates): %v\n  c2 (%d gates): %v",
			len(c1.Gates), c1.Gates, len(c2.Gates), c2.Gates)
	}
}

func circuitOf(n int, gs ...qc.Gate) *qc.Circuit {
	c := qc.New("test", n)
	c.Gates = gs
	return c
}

// TestLoweringIdentities pins the Z-phase lowering the light pass emits
// against the simulator: every residue class of Z^(k/4), plus the dagger
// constructors, must match its T-gate power.
func TestLoweringIdentities(t *testing.T) {
	for k := 0; k < 8; k++ {
		gs, err := lowerZPhase(0, k)
		if err != nil {
			t.Fatalf("lowerZPhase(%d): %v", k, err)
		}
		ref := qc.New("test", 2)
		for i := 0; i < k; i++ {
			ref.Append(qc.T(0))
		}
		mustEquivalent(t, 2, circuitOf(2, gs...), ref)
	}
	mustEquivalent(t, 2, circuitOf(2, qc.P(0), pdag(0)), circuitOf(2))
	mustEquivalent(t, 2, circuitOf(2, qc.V(0), vdag(0)), circuitOf(2))
}

// randomDecomposed builds a pseudo-random circuit over the decomposed
// gate set. Tests may use a seeded PRNG; the zx package itself is fully
// deterministic.
func randomDecomposed(rng *rand.Rand, qubits, gates int) *qc.Circuit {
	c := qc.New("random", qubits)
	for i := 0; i < gates; i++ {
		q := rng.Intn(qubits)
		switch rng.Intn(10) {
		case 0, 1, 2:
			r := rng.Intn(qubits - 1)
			if r >= q {
				r++
			}
			c.Append(qc.CNOT(q, r))
		case 3:
			c.Append(qc.P(q))
		case 4:
			c.Append(qc.Gate{Kind: qc.GatePdag, Targets: []int{q}})
		case 5:
			c.Append(qc.V(q))
		case 6:
			c.Append(qc.Gate{Kind: qc.GateVdag, Targets: []int{q}})
		case 7:
			c.Append(qc.T(q))
		case 8:
			c.Append(qc.Tdag(q))
		default:
			if rng.Intn(2) == 0 {
				c.Append(qc.NOT(q))
			} else {
				c.Append(qc.Z(q))
			}
		}
	}
	return c
}

// TestReduceDeterministic checks that the light pass is a pure function
// of the input circuit: two runs produce identical gate lists.
func TestReduceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		c := randomDecomposed(rng, 4, 30)
		r1, n1, err := reduceLight(c)
		if err != nil {
			t.Fatalf("reduceLight: %v", err)
		}
		r2, n2, err := reduceLight(c.Clone())
		if err != nil {
			t.Fatalf("reduceLight: %v", err)
		}
		if n1 != n2 || !reflect.DeepEqual(r1.Gates, r2.Gates) {
			t.Fatalf("trial %d: nondeterministic reduceLight (%d vs %d rewrites)", trial, n1, n2)
		}
	}
}

// TestReduceLightFixedCircuits pins the wire-structured pass's rewrites
// on hand-picked circuits: CNOT pair cancellation (plain Hopf), phase
// folding through CNOT controls and targets, and inverse-phase
// annihilation — each checked for both the expected shrink and unitary
// equivalence.
func TestReduceLightFixedCircuits(t *testing.T) {
	cases := []struct {
		c    *qc.Circuit
		want int // expected gate count after the pass
	}{
		// CNOT·CNOT = I: everything cancels.
		{circuitOf(2, qc.CNOT(0, 1), qc.CNOT(0, 1)), 0},
		// A control-commuting T between a cancelling CNOT pair survives alone.
		{circuitOf(2, qc.CNOT(0, 1), qc.T(0), qc.CNOT(0, 1)), 1},
		// A target-commuting V between a cancelling CNOT pair survives alone.
		{circuitOf(2, qc.CNOT(0, 1), qc.V(1), qc.CNOT(0, 1)), 1},
		// T·T folds to P through an interposed control.
		{circuitOf(2, qc.T(0), qc.CNOT(0, 1), qc.T(0)), 2},
		// P·P† annihilates; V·V† annihilates across a shared target.
		{circuitOf(2, qc.P(0), pdag(0), qc.V(1), qc.CNOT(0, 1), vdag(1)), 1},
		// A NOT between the CNOT targets blocks nothing: X-runs fuse.
		{circuitOf(2, qc.CNOT(0, 1), qc.NOT(1), qc.CNOT(0, 1)), 1},
		// A NOT on the control wire blocks cancellation (different color).
		{circuitOf(2, qc.CNOT(0, 1), qc.NOT(0), qc.CNOT(0, 1)), 3},
	}
	for i, tc := range cases {
		red, _, err := reduceLight(tc.c)
		if err != nil {
			t.Errorf("case %d: reduceLight: %v", i, err)
			continue
		}
		if len(red.Gates) != tc.want {
			t.Errorf("case %d: got %d gates %v, want %d", i, len(red.Gates), red.Gates, tc.want)
		}
		mustEquivalent(t, tc.c.NumQubits(), tc.c, red)
	}
}

// TestReduceFixedCircuits runs the rewrite pass (no cost fall-back) on
// hand-picked mixed circuits — empty, single gates, a CNOT swap, an H
// expansion, X-basis runs — and checks unitary equivalence, kept width
// and no growth.
func TestReduceFixedCircuits(t *testing.T) {
	cases := []*qc.Circuit{
		circuitOf(1),
		circuitOf(1, qc.T(0)),
		circuitOf(2, qc.CNOT(0, 1)),
		circuitOf(2, qc.CNOT(1, 0)),
		circuitOf(2, qc.CNOT(0, 1), qc.CNOT(1, 0), qc.CNOT(0, 1)), // swap
		circuitOf(2, qc.P(0), qc.V(0), qc.P(0)),                   // H
		circuitOf(2, qc.T(0), qc.T(0), qc.CNOT(0, 1), qc.Tdag(1)),
		circuitOf(3, qc.CNOT(0, 1), qc.CNOT(1, 2), qc.V(1), qc.CNOT(0, 2), qc.Z(2)),
		circuitOf(2, qc.V(0), qc.V(0), qc.NOT(0), qc.CNOT(0, 1)),
	}
	for i, c := range cases {
		red, _, err := reduceLight(c)
		if err != nil {
			t.Errorf("case %d: reduceLight: %v", i, err)
			continue
		}
		if red.NumQubits() != c.NumQubits() || len(red.Gates) > len(c.Gates) {
			t.Errorf("case %d: %d qubits %d gates -> %d qubits %d gates",
				i, c.NumQubits(), len(c.Gates), red.NumQubits(), len(red.Gates))
			continue
		}
		mustEquivalent(t, c.NumQubits(), c, red)
	}
}

// TestReduceLightRandomCircuits checks the light pass's soundness on
// seeded random circuits: it must keep the unitary and never grow the
// gate count.
func TestReduceLightRandomCircuits(t *testing.T) {
	checkReduceRandom(t, 13)
}

// TestReduceRandomCircuits is the main soundness check: across many
// seeded random circuits the rewrite pass must implement the same
// unitary as the input.
func TestReduceRandomCircuits(t *testing.T) {
	checkReduceRandom(t, 7)
}

// checkReduceRandom runs the rewrite pass on 60 random decomposed
// circuits drawn from seed and checks equivalence and no growth.
func checkReduceRandom(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 60; trial++ {
		qubits := 2 + rng.Intn(4) // 2..5
		gates := 5 + rng.Intn(36)
		c := randomDecomposed(rng, qubits, gates)
		red, _, err := reduceLight(c)
		if err != nil {
			t.Errorf("trial %d (%d qubits, %d gates): reduceLight: %v", trial, qubits, gates, err)
			continue
		}
		if len(red.Gates) > len(c.Gates) {
			t.Errorf("trial %d: rewrite pass grew the circuit %d -> %d gates",
				trial, len(c.Gates), len(red.Gates))
		}
		mustEquivalent(t, qubits, c, red)
	}
}

// TestOptimizeNeverWorse checks the fall-back contract: the canonical
// volume of the returned circuit never exceeds the input's, and the
// returned circuit stays equivalent.
func TestOptimizeNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		qubits := 2 + rng.Intn(3)
		c := randomDecomposed(rng, qubits, 8+rng.Intn(25))
		out, st, err := Optimize(c)
		if err != nil {
			t.Fatalf("trial %d: Optimize: %v", trial, err)
		}
		if st.CanonicalAfter > st.CanonicalBefore {
			t.Fatalf("trial %d: canonical volume regressed %d -> %d",
				trial, st.CanonicalBefore, st.CanonicalAfter)
		}
		if st.Applied == (st.FallbackReason != "") {
			t.Fatalf("trial %d: inconsistent stats: applied=%v reason=%q",
				trial, st.Applied, st.FallbackReason)
		}
		mustEquivalent(t, qubits, c, out)
	}
}

// TestOptimizeImproves feeds a circuit with obvious phase redundancy
// (T^2 = P costs one magic state instead of two T groups) and requires a
// strict canonical-volume win.
func TestOptimizeImproves(t *testing.T) {
	c := circuitOf(2,
		qc.T(0), qc.T(0),
		qc.CNOT(0, 1),
		qc.T(1), qc.T(1), qc.T(1), qc.T(1),
	)
	out, st, err := Optimize(c)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !st.Applied {
		t.Fatalf("expected a strict improvement, got fallback: %s", st.FallbackReason)
	}
	if st.CanonicalAfter >= st.CanonicalBefore {
		t.Fatalf("expected canonical volume to drop, got %d -> %d",
			st.CanonicalBefore, st.CanonicalAfter)
	}
	if out.TCount() >= c.TCount() {
		t.Fatalf("expected T-count to drop, got %d -> %d", c.TCount(), out.TCount())
	}
	mustEquivalent(t, 2, c, out)
}

// TestOptimizeRejectsUndcomposed checks the input contract.
func TestOptimizeRejectsUndcomposed(t *testing.T) {
	if _, _, err := Optimize(circuitOf(2, qc.H(0))); err == nil {
		t.Fatal("expected an error for a non-decomposed circuit")
	}
	if _, _, err := Optimize(circuitOf(3, qc.Toffoli(0, 1, 2))); err == nil {
		t.Fatal("expected an error for a Toffoli circuit")
	}
}
