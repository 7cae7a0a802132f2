package bstar

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mkBlocks(dims ...[2]int) []*Block {
	out := make([]*Block, len(dims))
	for i, d := range dims {
		out[i] = &Block{W: d[0], H: d[1]}
	}
	return out
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func overlaps(a, b *Block) bool {
	return a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H
}

func checkNoOverlap(t *testing.T, blocks []*Block, members []int) {
	t.Helper()
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			a, b := blocks[members[i]], blocks[members[j]]
			if overlaps(a, b) {
				t.Fatalf("blocks %d and %d overlap: %+v %+v", members[i], members[j], a, b)
			}
		}
	}
}

func TestPackSingle(t *testing.T) {
	blocks := mkBlocks([2]int{3, 4})
	tr := NewTree(blocks, allIdx(1))
	w, h := tr.Pack()
	if w != 3 || h != 4 {
		t.Fatalf("pack: %d×%d", w, h)
	}
	if blocks[0].X != 0 || blocks[0].Y != 0 {
		t.Fatalf("position: %+v", blocks[0])
	}
}

func TestPackEmpty(t *testing.T) {
	tr := NewTree(nil, nil)
	if w, h := tr.Pack(); w != 0 || h != 0 {
		t.Fatalf("empty pack: %d×%d", w, h)
	}
	if tr.Len() != 0 {
		t.Fatalf("len: %d", tr.Len())
	}
}

func TestPackRow(t *testing.T) {
	// A left-child chain packs as a row.
	blocks := mkBlocks([2]int{2, 2}, [2]int{3, 2}, [2]int{1, 2})
	tr := NewTree(blocks, nil)
	// Build the chain manually: 0 root, 1 left of 0, 2 left of 1.
	tr = &Tree{blocks: blocks, root: -1}
	if err := tr.Insert(0, -1, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(2, 1, true); err != nil {
		t.Fatal(err)
	}
	w, h := tr.Pack()
	if w != 6 || h != 2 {
		t.Fatalf("row pack: %d×%d want 6×2", w, h)
	}
	if blocks[1].X != 2 || blocks[2].X != 5 {
		t.Fatalf("row xs: %d %d", blocks[1].X, blocks[2].X)
	}
	checkNoOverlap(t, blocks, allIdx(3))
}

func TestPackRightChildStacks(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{2, 3})
	tr := &Tree{blocks: blocks, root: -1}
	if err := tr.Insert(0, -1, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 0, false); err != nil {
		t.Fatal(err)
	}
	w, h := tr.Pack()
	if w != 2 || h != 5 {
		t.Fatalf("stack pack: %d×%d want 2×5", w, h)
	}
	if blocks[1].X != 0 || blocks[1].Y != 2 {
		t.Fatalf("stacked block: %+v", blocks[1])
	}
}

func TestNewTreeCompleteShape(t *testing.T) {
	blocks := mkBlocks([2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1})
	tr := NewTree(blocks, allIdx(5))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("len: %d", tr.Len())
	}
	tr.Pack()
	checkNoOverlap(t, blocks, allIdx(5))
}

func TestRemoveInsert(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{3, 3}, [2]int{1, 1}, [2]int{2, 1})
	tr := NewTree(blocks, allIdx(4))
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 200; step++ {
		n := tr.RandomNode(rng)
		b := tr.Remove(n)
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d after remove: %v", step, err)
		}
		if tr.Len() == 0 {
			if err := tr.Insert(b, -1, true); err != nil {
				t.Fatal(err)
			}
		} else {
			p := tr.RandomNode(rng)
			if err := tr.Insert(b, p, rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d after insert: %v", step, err)
		}
		if tr.Len() != 4 {
			t.Fatalf("step %d: len %d", step, tr.Len())
		}
		tr.Pack()
		checkNoOverlap(t, blocks, allIdx(4))
	}
}

func TestSwapBlocks(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{4, 4})
	tr := NewTree(blocks, allIdx(2))
	n0, n1 := 0, 1
	b0, b1 := tr.BlockAt(n0), tr.BlockAt(n1)
	tr.SwapBlocks(n0, n1)
	if tr.BlockAt(n0) != b1 || tr.BlockAt(n1) != b0 {
		t.Fatal("swap did not exchange blocks")
	}
	tr.Pack()
	checkNoOverlap(t, blocks, allIdx(2))
}

func TestSwapAcrossTrees(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{3, 3})
	t1 := NewTree(blocks, []int{0})
	t2 := NewTree(blocks, []int{1})
	SwapBlocksAcross(t1, 0, t2, 0)
	if t1.BlockAt(0) != 1 || t2.BlockAt(0) != 0 {
		t.Fatal("cross swap failed")
	}
	if err := t1.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSecondRootFails(t *testing.T) {
	blocks := mkBlocks([2]int{1, 1}, [2]int{1, 1})
	tr := NewTree(blocks, []int{0})
	if err := tr.Insert(1, -1, true); err == nil {
		t.Fatal("second root accepted")
	}
}

func TestBlocksListsMembers(t *testing.T) {
	blocks := mkBlocks([2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1})
	tr := NewTree(blocks, []int{2, 0, 1})
	got := map[int]bool{}
	for _, b := range tr.AppendBlocks(nil) {
		got[b] = true
	}
	if !got[0] || !got[1] || !got[2] {
		t.Fatalf("blocks: %v", tr.AppendBlocks(nil))
	}
}

// Property: along random remove/insert/swap sequences, AppendBlocks lists
// exactly the blocks of the reachable nodes, and appending into a buffer
// with room allocates nothing.
func TestAppendBlocksMatchesPreorder(t *testing.T) {
	f := func(sizes []uint8, seed int64) bool {
		blocks, _, ok := quickBlocks(sizes)
		if !ok {
			return true
		}
		tr := NewTree(blocks, allIdx(len(blocks)))
		rng := rand.New(rand.NewSource(seed))
		buf := make([]int, 0, len(blocks))
		for step := 0; step < 30; step++ {
			var want []int
			for _, n := range preorder(tr, tr.root, nil) {
				want = append(want, tr.BlockAt(n))
			}
			buf = tr.AppendBlocks(buf[:0])
			got := slices.Clone(buf)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				return false
			}
			perturbStep(tr, rng)
		}
		return testing.AllocsPerRun(10, func() { buf = tr.AppendBlocks(buf[:0]) }) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// quickBlocks turns a quick.Check byte slice into 2–12 small blocks (two
// bytes per block) and their total area; ok is false when sizes is too
// short to be interesting.
func quickBlocks(sizes []uint8) (blocks []*Block, area int, ok bool) {
	if len(sizes) < 4 {
		return nil, 0, false
	}
	if len(sizes) > 24 {
		sizes = sizes[:24]
	}
	for i := 0; i+1 < len(sizes); i += 2 {
		w, h := 1+int(sizes[i]%6), 1+int(sizes[i+1]%6)
		blocks = append(blocks, &Block{W: w, H: h})
		area += w * h
	}
	return blocks, area, true
}

// perturbStep applies one random remove/re-insert or swap to tr.
func perturbStep(tr *Tree, rng *rand.Rand) {
	switch rng.Intn(2) {
	case 0:
		n := tr.RandomNode(rng)
		b := tr.Remove(n)
		if tr.Len() == 0 {
			_ = tr.Insert(b, -1, true)
		} else {
			_ = tr.Insert(b, tr.RandomNode(rng), rng.Intn(2) == 0)
		}
	case 1:
		a, b := tr.RandomNode(rng), tr.RandomNode(rng)
		tr.SwapBlocks(a, b)
	}
}

// Property: any random perturbation sequence keeps the packing overlap-free
// and the tree valid, and packing area ≥ total block area.
func TestQuickPerturbationsSafe(t *testing.T) {
	f := func(sizes []uint8, seed int64) bool {
		blocks, area, ok := quickBlocks(sizes)
		if !ok {
			return true
		}
		tr := NewTree(blocks, allIdx(len(blocks)))
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 40; step++ {
			perturbStep(tr, rng)
			if tr.Validate() != nil {
				return false
			}
		}
		w, h := tr.Pack()
		if w*h < area {
			return false
		}
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				if overlaps(blocks[i], blocks[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomNodeReference is the collect-then-index RandomNode that the
// preorder walk replaced, kept as its oracle: gather every live node in
// preorder, then index with a single rng.Intn draw.
func randomNodeReference(t *Tree, rng *rand.Rand) int {
	if t.Len() == 0 {
		return -1
	}
	live := preorder(t, t.root, nil)
	return live[rng.Intn(len(live))]
}

// preorder appends the nodes of the subtree rooted at n to dst in
// preorder: the reference traversal the tests check the tree against.
func preorder(t *Tree, n int, dst []int) []int {
	if n < 0 {
		return dst
	}
	dst = append(dst, n)
	dst = preorder(t, t.nodes[n].left, dst)
	return preorder(t, t.nodes[n].right, dst)
}

// Property: along random remove/insert/swap sequences, RandomNode returns
// the reference's node and leaves its rng in the reference's state.
func TestRandomNodeMatchesReference(t *testing.T) {
	f := func(sizes []uint8, seed int64) bool {
		blocks, _, ok := quickBlocks(sizes)
		if !ok {
			return true
		}
		tr := NewTree(blocks, allIdx(len(blocks)))
		rng := rand.New(rand.NewSource(seed))
		got := rand.New(rand.NewSource(seed ^ 1))
		want := rand.New(rand.NewSource(seed ^ 1))
		for step := 0; step < 40; step++ {
			for draw := 0; draw < 3; draw++ {
				if tr.RandomNode(got) != randomNodeReference(tr, want) {
					return false
				}
				if got.Int63() != want.Int63() {
					return false
				}
			}
			perturbStep(tr, rng)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFrom(t *testing.T) {
	blocks := mkBlocks([2]int{2, 2}, [2]int{3, 1}, [2]int{1, 4}, [2]int{2, 3}, [2]int{1, 1})
	src := NewTree(blocks, allIdx(len(blocks)))
	dst := NewTree(blocks, nil)
	dst.CopyFrom(src)
	want := dst.AppendBlocks(nil)
	wantW, wantH := dst.Pack()

	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 50; step++ {
		perturbStep(src, rng)
	}
	if err := dst.Validate(); err != nil {
		t.Fatalf("copy invalid after source mutation: %v", err)
	}
	if got := dst.AppendBlocks(nil); !slices.Equal(got, want) {
		t.Fatalf("copy changed with its source: %v, want %v", got, want)
	}
	if w, h := dst.Pack(); w != wantW || h != wantH {
		t.Fatalf("copy packs to %d×%d, want %d×%d", w, h, wantW, wantH)
	}
}

// bigTree returns a complete tree of n random blocks.
func bigTree(seed int64, n int) *Tree {
	rng := rand.New(rand.NewSource(seed))
	var blocks []*Block
	for i := 0; i < n; i++ {
		blocks = append(blocks, &Block{W: 2 + rng.Intn(20), H: 2 + rng.Intn(8)})
	}
	return NewTree(blocks, allIdx(len(blocks)))
}

func TestPackAllocs(t *testing.T) {
	tr := bigTree(4, 200)
	tr.Pack()
	if n := testing.AllocsPerRun(1000, func() { tr.Pack() }); n != 0 {
		t.Fatalf("Pack allocates %v times per call", n)
	}
}

func TestRandomNodeAllocs(t *testing.T) {
	tr := bigTree(4, 200)
	rng := rand.New(rand.NewSource(9))
	tr.RandomNode(rng)
	if n := testing.AllocsPerRun(1000, func() { tr.RandomNode(rng) }); n != 0 {
		t.Fatalf("RandomNode allocates %v times per call", n)
	}
}

func BenchmarkPack(b *testing.B) {
	tr := bigTree(4, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Pack()
	}
}

func BenchmarkPerturbPack(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var blocks []*Block
	for i := 0; i < 200; i++ {
		blocks = append(blocks, &Block{W: 2 + rng.Intn(20), H: 2 + rng.Intn(8)})
	}
	tr := NewTree(blocks, allIdx(len(blocks)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := tr.RandomNode(rng)
		blk := tr.Remove(n)
		if tr.Len() == 0 {
			_ = tr.Insert(blk, -1, true)
		} else {
			_ = tr.Insert(blk, tr.RandomNode(rng), rng.Intn(2) == 0)
		}
		tr.Pack()
	}
}
