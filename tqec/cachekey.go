package tqec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/qc"
)

// cacheKeyVersion tags the option-encoding layout hashed into CacheKey;
// bump it whenever a semantic Options field is added or the encoding
// changes so old addresses can never alias new configurations.
const cacheKeyVersion = 6

// CanonicalOptions returns a copy of opts normalized for content
// addressing: non-semantic fields are cleared (Hooks callbacks, the
// route fault-injection hook, the stage-timing Clock, the Serial
// debugging toggle, which is provably equivalent to the batched pass) and
// out-of-range values are
// clamped exactly the way the pipeline clamps them, so two Options values
// that compile identically canonicalize — and therefore hash — identically.
func CanonicalOptions(opts Options) Options {
	opts.Hooks = Hooks{}
	opts.Route.FailNet = nil
	opts.Route.Serial = false
	opts.Route.Clock = nil
	if opts.Retry.MaxAttempts < 1 {
		opts.Retry.MaxAttempts = 1
	}
	if opts.Retry.Escalation <= 1 {
		opts.Retry.Escalation = 2
	}
	if opts.PrimalGap < 1 {
		opts.PrimalGap = 1
	}
	return opts
}

// CacheKey returns the canonical content address of a compilation: the hex
// SHA-256 of the circuit's deterministic ICM byte encoding concatenated
// with the normalized options. Two (circuit, options) pairs share an
// address iff CompileContext would produce the same result for both (up to
// wall-clock), so the address is safe to use as a result-cache key. The
// circuit is decomposed and ICM-converted to compute the address; both are
// deterministic and cheap next to a compilation.
func CacheKey(c *qc.Circuit, opts Options) (string, error) {
	d, err := decompose.Decompose(c)
	if err != nil {
		return "", fmt.Errorf("cache key: %w", err)
	}
	ic, err := icm.FromDecomposed(d.Circuit)
	if err != nil {
		return "", fmt.Errorf("cache key: %w", err)
	}
	return CacheKeyICM(ic, opts)
}

// CacheKeyICM is CacheKey for circuits already in ICM form (the
// CompileICMContext entry point).
func CacheKeyICM(ic *icm.Circuit, opts Options) (string, error) {
	if ic == nil {
		return "", fmt.Errorf("cache key: nil ICM circuit")
	}
	b := ic.AppendCanonical(nil)
	b = appendOptions(b, CanonicalOptions(opts))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// appendOptions appends a fixed-order binary encoding of every semantic
// Options field. Field order is frozen per cacheKeyVersion.
func appendOptions(b []byte, o Options) []byte {
	b = append(b, 'o', 'p', 't', cacheKeyVersion)
	b = appendBool(b, o.Bridging)
	b = appendBool(b, o.ZX)
	b = appendBool(b, o.PrimalGroups)
	b = appendI64(b, int64(o.MaxGroupSize))
	b = appendBool(b, o.NoBoxes)
	b = appendI64(b, int64(o.PrimalGap))
	b = appendBool(b, o.StrictRouting)
	b = appendI64(b, int64(o.Retry.MaxAttempts))
	b = appendF64(b, o.Retry.Escalation)

	b = appendI64(b, int64(o.Place.Tiers))
	b = appendI64(b, int64(o.Place.Iterations))
	b = appendI64(b, o.Place.Seed)
	b = appendF64(b, o.Place.Alpha)
	b = appendF64(b, o.Place.Beta)
	b = appendF64(b, o.Place.Gamma)
	b = appendF64(b, o.Place.AspectTarget)
	b = appendI64(b, int64(o.Place.Margin))
	b = appendF64(b, o.Place.InitialTemp)
	b = appendF64(b, o.Place.FinalTemp)
	b = appendI64(b, int64(o.Place.TierPitch))
	b = appendI64(b, int64(o.Place.Chains))

	b = appendI64(b, int64(o.Route.MaxIterations))
	b = appendI64(b, int64(o.Route.InitialMargin))
	b = appendI64(b, int64(o.Route.ExpandStep))
	b = appendF64(b, o.Route.HistoryWeight)
	b = appendBool(b, o.Route.FriendNets)
	b = appendI64(b, int64(o.Route.MaxExpansions))
	b = appendBool(b, o.Route.Fallback)
	b = appendBool(b, o.Route.Bidirectional)
	return b
}

// appendI64 appends a little-endian int64.
func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendF64 appends a float64's IEEE-754 bits.
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendBool appends one byte, 0 or 1.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
