package route

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/place"
	"repro/internal/qc"
)

// routingDigest hashes every result field of a routing run that the
// search and negotiation trajectory determines: the routes in net-ID
// order, the failed and fallback net lists, the pass and rip-up counters,
// and the history statistics with the exact bits of MaxHistory.
func routingDigest(res *Result) string {
	h := sha256.New()
	put := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putInts := func(xs []int) {
		put(int64(len(xs)))
		for _, x := range xs {
			put(int64(x))
		}
	}
	ids := make([]int, 0, len(res.Routes))
	for id := range res.Routes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	put(int64(len(ids)))
	for _, id := range ids {
		path := res.Routes[id]
		put(int64(id))
		put(int64(len(path)))
		for _, c := range path {
			put(int64(c.X))
			put(int64(c.Y))
			put(int64(c.Z))
		}
	}
	putInts(res.Failed)
	putInts(res.FallbackNets)
	put(int64(res.FirstPassRouted))
	put(int64(res.Iterations))
	put(int64(res.RippedUp))
	put(int64(res.HistoryCells))
	put(int64(math.Float64bits(res.MaxHistory)))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenRoutings pins the exact routing results of the cases in
// TestRoutingGolden. The equivalence tests elsewhere compare two modes of
// the same build, so they cannot see a kernel change that shifts every
// mode alike (a different open-list pop order, say); these digests can.
// They must only change with a deliberate change to the router's output.
// The placements anneal one chain, so the digests do not depend on
// GOMAXPROCS.
var goldenRoutings = map[string]string{
	"4gt10-v1_81":                     "b066599ac7fe17745e8c37ef446fbcbf57b66846e1a881f2bb5fc26f13d7910d",
	"random-ripup":                    "fef26c8db33f2b7f3bf85d0f13354a7087dac09f3987dc18368fb36d44cbcb3a",
	"random-ripup/history-weight=0.7": "bdb41e978f46b6d5666461f50160c6d82352b2c478a51d11e0d6d1110610a848",
	"random-ripup/fail-net-0/shove":   "bc98f82c5b4aefe396abd046f7598151edbac959a87053b2515d37c3f89ad0de",
	"random-ripup/sparse":             "fef26c8db33f2b7f3bf85d0f13354a7087dac09f3987dc18368fb36d44cbcb3a",
}

// TestRoutingGolden routes a fixed set of placements and checks each
// result against its pinned digest. The cases cover the first pass and
// negotiation on the 4gt10 fixture, a small random circuit whose
// negotiation rips up nets and charges history, the same circuit under a
// HistoryWeight that takes costs off the half-integer grid, a forced net
// failure under a tight expansion cap that reaches the whole-world
// fallback and a shove rescue, and the sparse (hash-map) search mode.
func TestRoutingGolden(t *testing.T) {
	small := func(t *testing.T) *place.Placement {
		spec := qc.BenchmarkSpec{Qubits: 4, Toffolis: 2, NOTs: 2, Seed: 1}
		return placedChains(t, mustGen(t, spec), true, 100, 1)
	}
	cases := []struct {
		name   string
		pl     func(t *testing.T) *place.Placement
		opts   func() Options
		sparse bool
		// check asserts the case still exercises what it is meant to.
		check func(res *Result) bool
	}{
		{
			name: "4gt10-v1_81",
			pl: func(t *testing.T) *place.Placement {
				spec, err := qc.BenchmarkByName("4gt10-v1_81")
				if err != nil {
					t.Fatal(err)
				}
				return placedChains(t, mustGen(t, spec), true, 300, 1)
			},
			opts: DefaultOptions,
			check: func(res *Result) bool {
				return len(res.Routes) > 0
			},
		},
		{
			name: "random-ripup",
			pl:   small,
			opts: DefaultOptions,
			check: func(res *Result) bool {
				return res.RippedUp > 0 && res.HistoryCells > 0
			},
		},
		{
			name: "random-ripup/history-weight=0.7",
			pl:   small,
			opts: func() Options {
				o := DefaultOptions()
				o.HistoryWeight = 0.7
				return o
			},
			check: func(res *Result) bool {
				return res.RippedUp > 0 && res.HistoryCells > 0
			},
		},
		{
			name: "random-ripup/fail-net-0/shove",
			pl:   small,
			opts: func() Options {
				o := DefaultOptions()
				o.MaxExpansions = 5000
				o.FailNet = func(id int) bool { return id == 0 }
				return o
			},
			check: func(res *Result) bool {
				shoved := false
				for _, f := range res.FailedNets {
					shoved = shoved || strings.Contains(f.Reason, "shove")
				}
				return shoved && slices.Contains(res.FallbackNets, 0)
			},
		},
		{
			name:   "random-ripup/sparse",
			pl:     small,
			opts:   DefaultOptions,
			sparse: true,
			check: func(res *Result) bool {
				return res.RippedUp > 0 && res.HistoryCells > 0
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := tc.pl(t)
			if tc.sparse {
				defer forceSparseSearch()()
			}
			res, err := Run(pl, tc.opts())
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(res) {
				t.Fatalf("case no longer exercises its path: ripped %d, history cells %d, fallback %v",
					res.RippedUp, res.HistoryCells, res.FallbackNets)
			}
			if got, want := routingDigest(res), goldenRoutings[tc.name]; got != want {
				t.Errorf("routing digest %s, want %s", got, want)
			}
		})
	}
}
