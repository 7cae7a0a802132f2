package tqec

import (
	"reflect"
	"testing"

	"repro/internal/qc"
)

func keyFor(t *testing.T, c *qc.Circuit, opts Options) string {
	t.Helper()
	k, err := CacheKey(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testCircuit() *qc.Circuit {
	c := qc.New("key", 3)
	c.Append(qc.CNOT(0, 1), qc.Toffoli(0, 1, 2))
	return c
}

func TestCacheKeyStable(t *testing.T) {
	opts := DefaultOptions()
	a := keyFor(t, testCircuit(), opts)
	for i := 0; i < 8; i++ {
		if b := keyFor(t, testCircuit(), opts); b != a {
			t.Fatalf("round %d: key changed: %s vs %s", i, a, b)
		}
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a hex SHA-256", a)
	}
}

// keyedFields maps every semantic Options field, by its dotted path, to a
// mutation of it that survives CanonicalOptions. TestCacheKeySensitivity
// requires each one to move the key, and TestCacheKeyFieldCoverage
// requires every field of Options to appear here or in nonSemantic, so a
// field dropped from appendOptions, or a new one never added to it, fails.
var keyedFields = map[string]func(*Options){
	"Bridging":      func(o *Options) { o.Bridging = !o.Bridging },
	"ZX":            func(o *Options) { o.ZX = !o.ZX },
	"PrimalGroups":  func(o *Options) { o.PrimalGroups = !o.PrimalGroups },
	"MaxGroupSize":  func(o *Options) { o.MaxGroupSize++ },
	"NoBoxes":       func(o *Options) { o.NoBoxes = !o.NoBoxes },
	"PrimalGap":     func(o *Options) { o.PrimalGap = 2 },
	"StrictRouting": func(o *Options) { o.StrictRouting = !o.StrictRouting },

	"Retry.MaxAttempts": func(o *Options) { o.Retry.MaxAttempts++ },
	"Retry.Escalation":  func(o *Options) { o.Retry.Escalation++ },

	"Place.Tiers":        func(o *Options) { o.Place.Tiers = 3 },
	"Place.Iterations":   func(o *Options) { o.Place.Iterations = 777 },
	"Place.Seed":         func(o *Options) { o.Place.Seed++ },
	"Place.Alpha":        func(o *Options) { o.Place.Alpha += 0.125 },
	"Place.Beta":         func(o *Options) { o.Place.Beta += 0.125 },
	"Place.Gamma":        func(o *Options) { o.Place.Gamma += 0.125 },
	"Place.AspectTarget": func(o *Options) { o.Place.AspectTarget += 0.125 },
	"Place.Margin":       func(o *Options) { o.Place.Margin++ },
	"Place.InitialTemp":  func(o *Options) { o.Place.InitialTemp *= 2 },
	"Place.FinalTemp":    func(o *Options) { o.Place.FinalTemp *= 2 },
	"Place.TierPitch":    func(o *Options) { o.Place.TierPitch = 5 },
	"Place.Chains":       func(o *Options) { o.Place.Chains = 3 },

	"Route.MaxIterations": func(o *Options) { o.Route.MaxIterations++ },
	"Route.InitialMargin": func(o *Options) { o.Route.InitialMargin++ },
	"Route.ExpandStep":    func(o *Options) { o.Route.ExpandStep++ },
	"Route.HistoryWeight": func(o *Options) { o.Route.HistoryWeight += 0.5 },
	"Route.FriendNets":    func(o *Options) { o.Route.FriendNets = !o.Route.FriendNets },
	"Route.MaxExpansions": func(o *Options) { o.Route.MaxExpansions++ },
	"Route.Fallback":      func(o *Options) { o.Route.Fallback = !o.Route.Fallback },
	"Route.Bidirectional": func(o *Options) { o.Route.Bidirectional = !o.Route.Bidirectional },
}

// nonSemantic lists the Options fields CanonicalOptions clears because
// they never change a compile's output (TestCacheKeyCanonicalization).
var nonSemantic = map[string]bool{
	"Hooks.BeforeStage": true,
	"Route.FailNet":     true,
	"Route.Serial":      true,
	"Route.Clock":       true,
}

// TestCacheKeySensitivity checks that the circuit and every semantic
// option field move the key, and that no two field mutations collide.
func TestCacheKeySensitivity(t *testing.T) {
	base := keyFor(t, testCircuit(), DefaultOptions())

	other := testCircuit()
	other.Append(qc.NOT(0))
	if keyFor(t, other, DefaultOptions()) == base {
		t.Error("different circuit, same key")
	}

	seen := map[string]string{base: "defaults"}
	for name, mutate := range keyedFields {
		o := DefaultOptions()
		mutate(&o)
		k := keyFor(t, testCircuit(), o)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key equals the key of %s", name, prev)
			continue
		}
		seen[k] = name
	}
}

// TestCacheKeyFieldCoverage walks Options by reflection and requires every
// leaf field to be either keyed (keyedFields) or non-semantic.
func TestCacheKeyFieldCoverage(t *testing.T) {
	var leaves []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := prefix + f.Name
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", f.Type)
				continue
			}
			leaves = append(leaves, name)
		}
	}
	walk("", reflect.TypeOf(Options{}))
	for _, name := range leaves {
		if keyedFields[name] == nil && !nonSemantic[name] {
			t.Errorf("Options.%s is neither hashed by appendOptions nor cleared by CanonicalOptions", name)
		}
	}
	if got, want := len(leaves), len(keyedFields)+len(nonSemantic); got != want {
		t.Errorf("Options has %d leaf fields, but the tables list %d", got, want)
	}
}

// TestCacheKeyCanonicalization checks that non-semantic differences hash
// identically: hooks, fault-injection callbacks, the Serial toggle, and
// out-of-range values that the pipeline clamps.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := DefaultOptions()
	baseKey := keyFor(t, testCircuit(), base)

	hooked := base
	hooked.Hooks.BeforeStage = func(Stage) error { return nil }
	hooked.Route.FailNet = func(int) bool { return false }
	hooked.Route.Serial = true
	if keyFor(t, testCircuit(), hooked) != baseKey {
		t.Error("non-semantic fields changed the key")
	}

	clamped := base
	clamped.Retry.MaxAttempts = base.Retry.MaxAttempts
	clamped.PrimalGap = 0
	zeroGap := base
	zeroGap.PrimalGap = 1
	if keyFor(t, testCircuit(), clamped) != keyFor(t, testCircuit(), zeroGap) {
		t.Error("PrimalGap 0 and 1 should canonicalize identically")
	}

	r0 := base
	r0.Retry = Retry{}
	r1 := base
	r1.Retry = Retry{MaxAttempts: 1, Escalation: 2}
	if keyFor(t, testCircuit(), r0) != keyFor(t, testCircuit(), r1) {
		t.Error("zero Retry and its clamped form should canonicalize identically")
	}
}

func TestCacheKeyICMNil(t *testing.T) {
	if _, err := CacheKeyICM(nil, DefaultOptions()); err == nil {
		t.Fatal("CacheKeyICM(nil) succeeded")
	}
}

func TestCacheKeyInvalidCircuit(t *testing.T) {
	c := qc.New("bad", 1)
	c.Append(qc.CNOT(0, 5)) // target out of range
	if _, err := CacheKey(c, DefaultOptions()); err == nil {
		t.Fatal("CacheKey on an invalid circuit succeeded")
	}
}
