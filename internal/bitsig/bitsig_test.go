package bitsig

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vdsms/internal/minhash"
)

func TestCompare(t *testing.T) {
	if Compare(5, 3) != Greater || Compare(3, 3) != Equal || Compare(2, 3) != Less {
		t.Error("Compare relations wrong")
	}
}

func TestRelationString(t *testing.T) {
	if Greater.String() != ">" || Equal.String() != "=" || Less.String() != "<" {
		t.Error("Relation strings wrong")
	}
}

func TestSetAt(t *testing.T) {
	s := New(130) // spans three words
	for r := 0; r < 130; r++ {
		if s.At(r) != Greater {
			t.Fatalf("fresh position %d = %v", r, s.At(r))
		}
	}
	s.Set(0, Equal)
	s.Set(64, Less)
	s.Set(129, Equal)
	if s.At(0) != Equal || s.At(64) != Less || s.At(129) != Equal {
		t.Error("Set/At round trip failed")
	}
	s.Set(64, Greater) // Set must overwrite, including clearing bits
	if s.At(64) != Greater {
		t.Error("Set(Greater) did not clear position")
	}
	s.Set(0, Less)
	if s.At(0) != Less {
		t.Error("Equal→Less overwrite failed")
	}
}

func TestCounts(t *testing.T) {
	s := New(100)
	for r := 0; r < 30; r++ {
		s.Set(r, Equal)
	}
	for r := 30; r < 50; r++ {
		s.Set(r, Less)
	}
	g, e, l := s.Counts()
	if g != 50 || e != 30 || l != 20 {
		t.Errorf("Counts = (%d,%d,%d), want (50,30,20)", g, e, l)
	}
	if s.LessCount() != 20 {
		t.Errorf("LessCount = %d", s.LessCount())
	}
	if sim := s.Similarity(); sim != 0.3 {
		t.Errorf("Similarity = %g, want 0.3 (Lemma 1)", sim)
	}
}

// TestOrMergeTable checks every row of the paper's min/OR table:
// min{>,>}=">", min{>,=}="=", min{>,<}="<", min{=,=}="=", min{=,<}="<",
// min{<,<}="<".
func TestOrMergeTable(t *testing.T) {
	cases := []struct{ a, b, want Relation }{
		{Greater, Greater, Greater},
		{Greater, Equal, Equal},
		{Greater, Less, Less},
		{Equal, Equal, Equal},
		{Equal, Less, Less},
		{Less, Less, Less},
	}
	for _, c := range cases {
		for _, swap := range []bool{false, true} {
			a, b := c.a, c.b
			if swap {
				a, b = b, a
			}
			sa, sb := New(4), New(4)
			sa.Set(2, a)
			sb.Set(2, b)
			sa.Or(sb)
			if got := sa.At(2); got != c.want {
				t.Errorf("Or(%v,%v) = %v, want %v", a, b, got, c.want)
			}
		}
	}
}

// TestOrMatchesSketchMin is the lossless-encoding claim of Section V.A:
// the OR of the signatures of two candidate sketches equals the signature
// of their min-combination, for the same query.
func TestOrMatchesSketchMin(t *testing.T) {
	fam, _ := minhash.NewFamily(256, 1)
	q := fam.SketchSet([]uint64{10, 20, 30, 40})
	a := fam.SketchSet([]uint64{10, 25, 35})
	b := fam.SketchSet([]uint64{20, 40, 99})

	sa := FromSketches(a, q)
	sb := FromSketches(b, q)
	sa.Or(sb)

	combined := minhash.Combined(a, b)
	direct := FromSketches(combined, q)
	for r := 0; r < 256; r++ {
		if sa.At(r) != direct.At(r) {
			t.Fatalf("position %d: OR gives %v, direct signature gives %v",
				r, sa.At(r), direct.At(r))
		}
	}
	if sa.Similarity() != minhash.Similarity(combined, q) {
		t.Errorf("Lemma 1 similarity %g != sketch similarity %g",
			sa.Similarity(), minhash.Similarity(combined, q))
	}
}

func TestFromSketchesSimilarityMatchesSketch(t *testing.T) {
	fam, _ := minhash.NewFamily(512, 2)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		var setA, setB []uint64
		for i := 0; i < 40; i++ {
			setA = append(setA, uint64(rng.Intn(100)))
			setB = append(setB, uint64(rng.Intn(100)))
		}
		a, b := fam.SketchSet(setA), fam.SketchSet(setB)
		sig := FromSketches(a, b)
		if got, want := sig.Similarity(), minhash.Similarity(a, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("signature similarity %g, sketch similarity %g", got, want)
		}
	}
}

func TestPrunable(t *testing.T) {
	s := New(100)
	// δ=0.7 → prune when LessCount > 30.
	for r := 0; r < 30; r++ {
		s.Set(r, Less)
	}
	if s.Prunable(0.7) {
		t.Error("LessCount=30 prunable at δ=0.7, bound is strict >")
	}
	s.Set(30, Less)
	if !s.Prunable(0.7) {
		t.Error("LessCount=31 not prunable at δ=0.7")
	}
}

// Lemma 2 soundness: a candidate that still satisfies sim >= δ can never be
// prunable, regardless of the relation mix.
func TestPropertyLemma2Sound(t *testing.T) {
	f := func(seed int64, deltaPct uint8) bool {
		delta := float64(deltaPct%50+50) / 100 // δ ∈ [0.5, 1)
		rng := rand.New(rand.NewSource(seed))
		s := New(64)
		for r := 0; r < 64; r++ {
			s.Set(r, Relation(rng.Intn(3)))
		}
		if s.Similarity() >= delta && s.Prunable(delta) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Lemma 2 monotonicity: OR-ing never decreases LessCount, so a pruned
// candidate's extensions stay pruned.
func TestPropertyOrMonotoneLess(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a, b := New(64), New(64)
		for r := 0; r < 64; r++ {
			a.Set(r, Relation(ra.Intn(3)))
			b.Set(r, Relation(rb.Intn(3)))
		}
		before := a.LessCount()
		a.Or(b)
		return a.LessCount() >= before && a.LessCount() >= b.LessCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFromSketchesMatchesReference pins the word-at-a-time FromSketches
// against the per-position definition, Set(r, Compare(cand[r], query[r])),
// across K values around the word boundaries. Values come from a tiny
// alphabet (so ties are frequent) that includes both ends of the uint64
// range, where a borrow-based comparison would first go wrong.
func TestFromSketchesMatchesReference(t *testing.T) {
	alphabet := []uint64{0, 1, 2, math.MaxUint64 - 1, math.MaxUint64, 1 << 63, 1<<63 - 1}
	rng := rand.New(rand.NewSource(40))
	for _, k := range []int{1, 63, 64, 65, 800} {
		for trial := 0; trial < 50; trial++ {
			cand, query := make(minhash.Sketch, k), make(minhash.Sketch, k)
			for r := range cand {
				cand[r] = alphabet[rng.Intn(len(alphabet))]
				query[r] = alphabet[rng.Intn(len(alphabet))]
				if trial%5 == 0 { // forced ties
					query[r] = cand[r]
				}
			}
			want := New(k)
			for r := range cand {
				want.Set(r, Compare(cand[r], query[r]))
			}
			got := FromSketches(cand, query)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d trial %d: FromSketches lo=%x hi=%x, reference lo=%x hi=%x",
					k, trial, got.Lo, got.Hi, want.Lo, want.Hi)
			}
		}
	}
}

// TestSlabSignaturesIndependent: signatures carved from one slab start
// all-Greater and never write into each other's planes.
func TestSlabSignaturesIndependent(t *testing.T) {
	for _, k := range []int{1, 64, 65} {
		sigs := NewSlab(k, 3)
		ones := make(minhash.Sketch, k)
		for r := range ones {
			ones[r] = 1
		}
		sigs[1].SetSketches(make(minhash.Sketch, k), ones) // all Less
		for _, i := range []int{0, 2} {
			if g, _, _ := sigs[i].Counts(); g != k {
				t.Fatalf("K=%d: slab neighbour %d disturbed (%d Greater)", k, i, g)
			}
		}
		if sigs[1].LessCount() != k {
			t.Fatalf("K=%d: LessCount %d after all-Less fill", k, sigs[1].LessCount())
		}
	}
}

func TestClone(t *testing.T) {
	s := New(64)
	s.Set(3, Less)
	c := s.Clone()
	c.Set(3, Greater)
	if s.At(3) != Less {
		t.Error("Clone shares storage")
	}
}

func TestSizeBits(t *testing.T) {
	if New(800).SizeBits() != 1600 {
		t.Error("SizeBits != 2K")
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"New(0)":       func() { New(0) },
		"Set range":    func() { New(8).Set(8, Equal) },
		"At range":     func() { New(8).At(-1) },
		"Or mismatch":  func() { New(8).Or(New(16)) },
		"FromSketches": func() { FromSketches(make(minhash.Sketch, 4), make(minhash.Sketch, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkOrK800(b *testing.B) {
	x, y := New(800), New(800)
	for r := 0; r < 800; r += 3 {
		y.Set(r, Less)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkSimilarityK800(b *testing.B) {
	x := New(800)
	for r := 0; r < 800; r += 2 {
		x.Set(r, Equal)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Similarity()
	}
}

func BenchmarkFromSketchesK800(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	q := fam.SketchSet([]uint64{1, 2, 3})
	c := fam.SketchSet([]uint64{2, 3, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromSketches(c, q)
	}
}
