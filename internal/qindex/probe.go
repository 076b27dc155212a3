package qindex

import (
	"sort"

	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
)

// Result is one element of the related query list R_L: the bit signature of
// a basic-window sketch against one query.
type Result struct {
	QID    int
	Length int // query length in frames
	Sig    *bitsig.Signature
}

// ProbeOutput is what a Prober returns for one basic window: the surviving
// related-query list plus the ids of the queries that entered R_L but were
// pruned by Lemma 2 (their prune cascades to candidate sequences that track
// them).
type ProbeOutput struct {
	Related []Result
	Pruned  []int
	// Comparisons counts elementary value comparisons performed, the CPU
	// proxy used by the cost experiments: one per owned equal entry the
	// index probe inspects, plus K per signature built.
	Comparisons int
	// EmptySearches counts rows that a RowMask admitted but whose equal
	// search found no entry — the pre-filter tier's false positives. Zero
	// when probing unmasked. Every shard of one window reports the same
	// value (the emptiness of a row is shard-independent), so fold it from
	// a single shard, not by summing.
	EmptySearches int
}

// RowMask is the optional per-window row admission set a pre-filter tier
// (internal/prefilter) computes before the exact probe: bit i set means
// row i may hold the window's hash value sk[i] and must be searched; a
// clear bit rejects the row's equal search — and with it every candidate
// query at that hash position — in O(1). A nil RowMask admits every row.
//
// Masking is sound only when the mask is a superset of the truly-equal
// rows (no false negatives), which Bloom/fingerprint filters guarantee;
// the masked probe output is then identical to the unmasked one.
type RowMask []uint64

// NewRowMask returns an all-rejecting mask for k rows.
func NewRowMask(k int) RowMask { return make(RowMask, (k+63)/64) }

// Set admits row i.
func (m RowMask) Set(i int) { m[i/64] |= 1 << (i % 64) }

// Admits reports whether row i must be searched. A nil mask admits all.
func (m RowMask) Admits(i int) bool { return m == nil || m[i/64]&(1<<(i%64)) != 0 }

// Prober produces the related-query list of one basic-window sketch. Both
// the Hash-Query index and the linear scan (the "NoIndex" baseline of the
// Fig. 9 experiment) implement it.
type Prober interface {
	Probe(sk minhash.Sketch, delta float64) ProbeOutput
}

// ShardOf maps a query id to one of nshards evaluation shards. The mapping
// is the single source of truth for the parallel matching kernel: probes,
// candidate state and match ownership all partition queries with it, so a
// query's entire per-window life happens on one worker.
func ShardOf(qid, nshards int) int {
	if nshards <= 1 {
		return 0
	}
	s := qid % nshards
	if s < 0 {
		s += nshards
	}
	return s
}

// Probe implements the ProbeIndex algorithm (paper Figure 5) over every
// indexed query. It is ProbeShard with a single shard.
func (x *Index) Probe(sk minhash.Sketch, delta float64) ProbeOutput {
	return x.ProbeShard(sk, delta, 0, 1)
}

// ProbeShard probes the index for the queries of one shard (those with
// ShardOf(qid, nshards) == shard). Every query is owned by exactly one
// shard, so the union of the nshards outputs equals Probe's output, and the
// Comparisons counts sum to Probe's count — the probe work partitions
// instead of being replicated. Each row costs one extra binary search per
// shard, which is the price of running the shards concurrently over a
// single shared structure.
func (x *Index) ProbeShard(sk minhash.Sketch, delta float64, shard, nshards int) ProbeOutput {
	return x.ProbeShardMasked(sk, delta, shard, nshards, nil)
}

// ProbeShardMasked is ProbeShard under a pre-filter row mask: rows the
// mask rejects skip their equal search entirely, which is the whole per-row
// cost for the overwhelmingly common case of a window value matching no
// query. The output is identical to the unmasked probe whenever the mask has
// no false negatives (which the prefilter tier guarantees). A nil mask
// searches every row.
//
// It (1) binary-searches every admitted row for values equal to sk[i],
// collecting the owned queries found in order of discovery, then (2) builds
// each discovered query's signature in one pass over its stored sketch and
// applies the Lemma 2 prune to its Less count. The paper's row walk prunes
// as soon as the running Less count exceeds K(1−δ); the count only grows,
// so testing the final count decides the same queries.
func (x *Index) ProbeShardMasked(sk minhash.Sketch, delta float64, shard, nshards int, mask RowMask) ProbeOutput {
	if len(sk) != x.k {
		panic("qindex: probe sketch K mismatch")
	}
	var out ProbeOutput
	var found []int
	seen := make(map[int]struct{})
	for i, v := range sk {
		if !mask.Admits(i) {
			continue
		}
		row := x.rows[i]
		lo := sort.Search(len(row), func(j int) bool { return row[j].value >= v })
		if mask != nil && (lo >= len(row) || row[lo].value != v) {
			out.EmptySearches++
		}
		for j := lo; j < len(row) && row[j].value == v; j++ {
			qid := row[j].qid
			if ShardOf(qid, nshards) != shard {
				continue
			}
			out.Comparisons++
			if _, dup := seen[qid]; dup {
				continue
			}
			seen[qid] = struct{}{}
			found = append(found, qid)
		}
	}

	sigs := bitsig.NewSlab(x.k, len(found))
	for n, qid := range found {
		q, sig := x.queries[qid], &sigs[n]
		sig.SetSketches(sk, q.Sketch)
		out.Comparisons += x.k
		if sig.Prunable(delta) {
			out.Pruned = append(out.Pruned, qid)
			continue
		}
		out.Related = append(out.Related, Result{QID: qid, Length: q.Length, Sig: sig})
	}
	return out
}

// Scan is the index-free Prober: every query sketch is compared against the
// window sketch in full (the SketchNoIndex / BitNoIndex baseline). Queries
// with no equal position are omitted from the result, matching the index's
// notion of "related"; queries failing Lemma 2 are reported as pruned.
type Scan struct {
	Queries []Query
}

// Probe implements Prober by brute force.
func (s *Scan) Probe(sk minhash.Sketch, delta float64) ProbeOutput {
	po, _ := s.ProbeShard(sk, delta, 0, 1)
	return po
}

// ProbeShard scans only the queries of one shard, returning their probe
// output and the number of full sketch comparisons performed. The shard
// outputs and scan counts partition Probe's exactly, so the brute-force
// probe parallelises linearly across workers.
func (s *Scan) ProbeShard(sk minhash.Sketch, delta float64, shard, nshards int) (ProbeOutput, int) {
	var out ProbeOutput
	scanned := 0
	for _, q := range s.Queries {
		if ShardOf(q.ID, nshards) != shard {
			continue
		}
		scanned++
		sig := bitsig.FromSketches(sk, q.Sketch)
		out.Comparisons += len(sk)
		_, eq, _ := sig.Counts()
		if eq == 0 {
			continue
		}
		if sig.Prunable(delta) {
			out.Pruned = append(out.Pruned, q.ID)
			continue
		}
		out.Related = append(out.Related, Result{QID: q.ID, Length: q.Length, Sig: sig})
	}
	return out, scanned
}
