package qindex

import (
	"math/rand"
	"slices"
	"testing"

	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
)

// makeQueries builds n queries over random id sets with the given family.
func makeQueries(t testing.TB, fam *minhash.Family, n int, seed int64) []Query {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Query, n)
	for i := range qs {
		size := rng.Intn(30) + 10
		ids := make([]uint64, size)
		for j := range ids {
			ids[j] = uint64(rng.Intn(500))
		}
		qs[i] = Query{ID: i + 1, Length: (rng.Intn(20) + 5) * 30, Sketch: fam.SketchSet(ids)}
	}
	return qs
}

// verifyStructure checks every invariant of the Hash-Query array: each row
// is sorted by (value, qid) and holds every query exactly once, at that
// query's sketch value, and SketchOf/LengthOf return what was indexed.
func verifyStructure(t *testing.T, x *Index, queries []Query) {
	t.Helper()
	if x.Len() != len(queries) {
		t.Fatalf("index has %d queries, want %d", x.Len(), len(queries))
	}
	for i, row := range x.rows {
		if len(row) != len(queries) {
			t.Fatalf("row %d has %d entries, want %d", i, len(row), len(queries))
		}
		for j := 1; j < len(row); j++ {
			if cmpEntry(row[j-1], row[j]) >= 0 {
				t.Fatalf("row %d not strictly sorted by (value, qid) at %d", i, j)
			}
		}
		inRow := make(map[int]uint64, len(row))
		for _, e := range row {
			inRow[e.qid] = e.value
		}
		for _, q := range queries {
			if v, ok := inRow[q.ID]; !ok || v != q.Sketch[i] {
				t.Fatalf("row %d: query %d has entry %v/%d, want value %d", i, q.ID, ok, v, q.Sketch[i])
			}
		}
	}
	for _, q := range queries {
		got, ok := x.SketchOf(q.ID)
		if !ok {
			t.Fatalf("query %d missing from index", q.ID)
		}
		if minhash.Similarity(got, q.Sketch) != 1 {
			t.Fatalf("stored sketch of query %d differs from the indexed one", q.ID)
		}
		if l, _ := x.LengthOf(q.ID); l != q.Length {
			t.Fatalf("query %d length %d, want %d", q.ID, l, q.Length)
		}
	}
}

func TestBuildAndStructure(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 1)
	queries := makeQueries(t, fam, 20, 2)
	x, err := Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	if x.K() != 32 || x.Len() != 20 {
		t.Fatalf("K=%d Len=%d", x.K(), x.Len())
	}
	verifyStructure(t, x, queries)
}

func TestBuildValidation(t *testing.T) {
	fam, _ := minhash.NewFamily(8, 1)
	s := fam.SketchSet([]uint64{1})
	if _, err := Build(nil); err == nil {
		t.Error("empty build accepted")
	}
	if _, err := Build([]Query{{ID: 1, Length: 10, Sketch: s}, {ID: 1, Length: 10, Sketch: s}}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, err := Build([]Query{{ID: 1, Length: 0, Sketch: s}}); err == nil {
		t.Error("zero length accepted")
	}
	short := make(minhash.Sketch, 4)
	if _, err := Build([]Query{{ID: 1, Length: 10, Sketch: s}, {ID: 2, Length: 10, Sketch: short}}); err == nil {
		t.Error("mismatched K accepted")
	}
}

func TestQueryIDs(t *testing.T) {
	fam, _ := minhash.NewFamily(16, 1)
	queries := makeQueries(t, fam, 5, 3)
	x, _ := Build(queries)
	ids := x.QueryIDs()
	if len(ids) != 5 {
		t.Fatalf("QueryIDs length %d", len(ids))
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		seen[id] = true
	}
	for _, q := range queries {
		if !seen[q.ID] {
			t.Errorf("query %d missing from QueryIDs", q.ID)
		}
	}
}

func TestAddRemoveOnline(t *testing.T) {
	fam, _ := minhash.NewFamily(24, 4)
	queries := makeQueries(t, fam, 10, 5)
	x, err := Build(queries[:6])
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[6:] {
		if err := x.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	verifyStructure(t, x, queries)

	// Remove a few and re-verify.
	if err := x.Remove(queries[2].ID); err != nil {
		t.Fatal(err)
	}
	if err := x.Remove(queries[8].ID); err != nil {
		t.Fatal(err)
	}
	remaining := append(append([]Query{}, queries[:2]...), queries[3:8]...)
	remaining = append(remaining, queries[9])
	verifyStructure(t, x, remaining)
	if _, ok := x.SketchOf(queries[2].ID); ok {
		t.Error("removed query still resolvable")
	}

	// Error paths.
	if err := x.Remove(queries[2].ID); err == nil {
		t.Error("double remove succeeded")
	}
	if err := x.Add(queries[0]); err == nil {
		t.Error("duplicate add succeeded")
	}
}

func TestAddRemoveFuzz(t *testing.T) {
	fam, _ := minhash.NewFamily(16, 6)
	all := makeQueries(t, fam, 30, 7)
	x, err := Build(all[:5])
	if err != nil {
		t.Fatal(err)
	}
	inIndex := map[int]Query{}
	for _, q := range all[:5] {
		inIndex[q.ID] = q
	}
	rng := rand.New(rand.NewSource(8))
	nextAdd := 5
	for step := 0; step < 60; step++ {
		if (rng.Intn(2) == 0 && nextAdd < len(all)) || len(inIndex) <= 1 {
			q := all[nextAdd]
			nextAdd++
			if nextAdd == len(all) {
				nextAdd = 0 // recycle removed ones
			}
			if _, dup := inIndex[q.ID]; dup {
				continue
			}
			if err := x.Add(q); err != nil {
				t.Fatalf("step %d add: %v", step, err)
			}
			inIndex[q.ID] = q
		} else {
			var victim int
			for id := range inIndex {
				victim = id
				break
			}
			if err := x.Remove(victim); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			delete(inIndex, victim)
		}
		var cur []Query
		for _, q := range inIndex {
			cur = append(cur, q)
		}
		verifyStructure(t, x, cur)
	}
}

// probeMatches compares index probing to the brute-force scan: surviving
// related queries must carry identical signatures.
func TestProbeMatchesScan(t *testing.T) {
	fam, _ := minhash.NewFamily(64, 9)
	queries := makeQueries(t, fam, 25, 10)
	x, err := Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	scan := &Scan{Queries: queries}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		// Windows share ids with queries so some relations exist.
		ids := make([]uint64, rng.Intn(20)+5)
		for j := range ids {
			ids[j] = uint64(rng.Intn(500))
		}
		sk := fam.SketchSet(ids)
		delta := 0.5 + 0.4*rng.Float64()

		got := x.Probe(sk, delta)
		want := scan.Probe(sk, delta)

		gotByID := map[int]*bitsig.Signature{}
		for _, r := range got.Related {
			gotByID[r.QID] = r.Sig
		}
		wantByID := map[int]*bitsig.Signature{}
		for _, r := range want.Related {
			wantByID[r.QID] = r.Sig
		}
		if len(gotByID) != len(wantByID) {
			t.Fatalf("trial %d δ=%.2f: index found %d related, scan %d",
				trial, delta, len(gotByID), len(wantByID))
		}
		for id, wsig := range wantByID {
			gsig, ok := gotByID[id]
			if !ok {
				t.Fatalf("trial %d: query %d missing from index probe", trial, id)
			}
			for r := 0; r < 64; r++ {
				if gsig.At(r) != wsig.At(r) {
					t.Fatalf("trial %d query %d position %d: index %v, scan %v",
						trial, id, r, gsig.At(r), wsig.At(r))
				}
			}
		}
	}
}

func TestProbeSelfQueryIsAllEqual(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 12)
	queries := makeQueries(t, fam, 10, 13)
	x, _ := Build(queries)
	out := x.Probe(queries[3].Sketch, 0.7)
	var found bool
	for _, r := range out.Related {
		if r.QID == queries[3].ID {
			found = true
			if r.Sig.Similarity() != 1 {
				t.Errorf("self-probe similarity %g, want 1", r.Sig.Similarity())
			}
			if r.Length != queries[3].Length {
				t.Errorf("probe length %d, want %d", r.Length, queries[3].Length)
			}
		}
	}
	if !found {
		t.Fatal("query not related to its own sketch")
	}
}

func TestProbeUnrelatedWindow(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 14)
	queries := makeQueries(t, fam, 10, 15)
	x, _ := Build(queries)
	// Ids far outside the queries' universe: no equal min-hash expected.
	sk := fam.SketchSet([]uint64{1 << 40, 1<<40 + 1, 1<<40 + 2})
	out := x.Probe(sk, 0.7)
	if len(out.Related) != 0 {
		t.Errorf("unrelated window produced %d related queries", len(out.Related))
	}
}

func TestProbePrunesHopelessQueries(t *testing.T) {
	// With a very high δ, queries sharing only one hash value must be
	// pruned early and reported in Pruned.
	fam, _ := minhash.NewFamily(64, 16)
	qIDs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	wIDs := []uint64{8, 100, 101, 102, 103, 104, 105, 106}
	queries := []Query{{ID: 1, Length: 100, Sketch: fam.SketchSet(qIDs)}}
	x, _ := Build(queries)
	sk := fam.SketchSet(wIDs)
	out := x.Probe(sk, 0.95)
	if len(out.Related) != 0 {
		t.Errorf("barely-overlapping query not pruned at δ=0.95: %d related", len(out.Related))
	}
	// The query shares id 8 so it enters R_L, then dies by Lemma 2.
	if !slices.Contains(out.Pruned, 1) {
		t.Error("pruned query not reported in Pruned list")
	}
}

func TestScanOmitsNoEqualQueries(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 17)
	queries := makeQueries(t, fam, 10, 18)
	s := &Scan{Queries: queries}
	sk := fam.SketchSet([]uint64{1 << 50})
	out := s.Probe(sk, 0.5)
	if len(out.Related) != 0 {
		t.Errorf("scan returned %d related queries for a disjoint window", len(out.Related))
	}
}

func TestProbeAfterOnlineUpdates(t *testing.T) {
	fam, _ := minhash.NewFamily(48, 19)
	queries := makeQueries(t, fam, 12, 20)
	x, _ := Build(queries[:8])
	for _, q := range queries[8:] {
		if err := x.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	x.Remove(queries[0].ID)
	x.Remove(queries[5].ID)
	remaining := append(append([]Query{}, queries[1:5]...), queries[6:]...)
	scan := &Scan{Queries: remaining}
	sk := queries[9].Sketch
	got := x.Probe(sk, 0.6)
	want := scan.Probe(sk, 0.6)
	if len(got.Related) != len(want.Related) {
		t.Fatalf("after updates: index %d related, scan %d", len(got.Related), len(want.Related))
	}
}

func BenchmarkProbeIndex200Queries(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	queries := makeQueries(b, fam, 200, 2)
	x, err := Build(queries)
	if err != nil {
		b.Fatal(err)
	}
	sk := queries[50].Sketch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Probe(sk, 0.7)
	}
}

func BenchmarkScan200Queries(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	queries := makeQueries(b, fam, 200, 2)
	s := &Scan{Queries: queries}
	sk := queries[50].Sketch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Probe(sk, 0.7)
	}
}

// BenchmarkProbe is the standalone probe microbenchmark: K=800, 1000
// queries over disjoint id ranges, and a window that shares a few ids with
// each of 10 of them — so the probe discovers ~10 related queries among
// 1000 rows' worth of entries. It runs unmasked and under the exact row
// mask a false-positive-free pre-filter would hand it.
func BenchmarkProbe(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	rng := rand.New(rand.NewSource(3))
	queries := make([]Query, 1000)
	var winIDs []uint64
	for i := range queries {
		ids := make([]uint64, 40)
		for j := range ids {
			ids[j] = uint64(i)<<20 | uint64(rng.Intn(1<<20))
		}
		queries[i] = Query{ID: i + 1, Length: 300, Sketch: fam.SketchSet(ids)}
		if i%100 == 0 {
			winIDs = append(winIDs, ids[:4]...)
		}
	}
	for len(winIDs) < 60 {
		winIDs = append(winIDs, 1<<40|uint64(rng.Intn(1<<20)))
	}
	x, err := Build(queries)
	if err != nil {
		b.Fatal(err)
	}
	sk := fam.SketchSet(winIDs)
	for _, bc := range []struct {
		name string
		mask RowMask
	}{{"nil-mask", nil}, {"exact-mask", exactRowMask(x, sk)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var po ProbeOutput
			for i := 0; i < b.N; i++ {
				po = x.ProbeShardMasked(sk, 0.7, 0, 1, bc.mask)
			}
			b.ReportMetric(float64(len(po.Related)+len(po.Pruned)), "related/op")
		})
	}
}
