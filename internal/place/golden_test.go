package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// placementDigest hashes every result field of a placement that the SA
// trajectory determines: positions, tiers, move count, wirelength and the
// exact bits of the final cost.
func placementDigest(p *Placement) string {
	h := sha256.New()
	put := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(p.Pos)))
	for _, q := range p.Pos {
		put(int64(q.X))
		put(int64(q.Y))
		put(int64(q.Z))
	}
	for _, t := range p.TierOf {
		put(int64(t))
	}
	put(int64(p.Moves))
	put(int64(p.WireLength))
	put(int64(math.Float64bits(p.Cost)))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPlacements pins the exact placements of the chains_test corpus.
// The tests elsewhere compare two runs of the same build, so they cannot
// see an optimization that shifts the SA trajectory; these digests can.
// They must only change with a deliberate change to the placer's output.
var goldenPlacements = map[string]string{
	"benchmark/seed=1/chains=1":  "6eb50f8a736ccb81ab117bb4b94aff3876c186732d95c6321994cffe0ff5d64c",
	"benchmark/seed=1/chains=2":  "ae3829fb395c62e67ea0b078569a1fe2b5a9066e1fc7ada7a22d4e8566c7419e",
	"benchmark/seed=7/chains=1":  "77df8a91d589c3281a6d8a638392ee4e5bfacb7749bcd1a19cd746a6e88f3da7",
	"benchmark/seed=7/chains=2":  "7b0f05f8140173ed0432c50c334af37051d124cdbade259eb998e81a923da28c",
	"tgate/seed=1/chains=1":      "ce1685c95c8b185970b21a0f38daf18b5ce309a2c8c135d8ab9070e2f5e017a6",
	"tgate/seed=1/chains=2":      "019b84e87591adb1233a427bef6736728d487b22b2e13632f569615e33e9ed78",
	"tgate/seed=7/chains=1":      "5a6e31544c4d50cc5064d04c98f3b017b27704c92ed6937ec130d10cca00efe8",
	"tgate/seed=7/chains=2":      "7b6333785fdc75cddfddf2471a6b20a20173e0526966022d0092b0aee3b4cc94",
	"three-cnot/seed=1/chains=1": "07e6bf06151576a56b719d58956d178e1b9371a1bca44d659df6752f3f7ab373",
	"three-cnot/seed=1/chains=2": "07e6bf06151576a56b719d58956d178e1b9371a1bca44d659df6752f3f7ab373",
	"three-cnot/seed=7/chains=1": "bcf69267c726792b892253d45f014505094d2ca7ba3cd932cc167a6c296f82c8",
	"three-cnot/seed=7/chains=2": "bcf69267c726792b892253d45f014505094d2ca7ba3cd932cc167a6c296f82c8",
}

// TestPlacementGolden checks the corpus placements for seeds {1, 7} at
// explicit chain counts 1 and 2 against the pinned digests.
func TestPlacementGolden(t *testing.T) {
	for name, mk := range corpus(t) {
		cl, nets := pipeline(t, mk())
		for _, seed := range []int64{1, 7} {
			for _, chains := range []int{1, 2} {
				o := quickOpts(200)
				o.Seed = seed
				o.Chains = chains
				p, err := Run(cl, nets, o)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/seed=%d/chains=%d", name, seed, chains)
				if got, want := placementDigest(p), goldenPlacements[key]; got != want {
					t.Errorf("%s: placement digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
