// Package qindex implements the query-sequence index of paper Section V.C:
// a Hash-Query array HQ[K][m] holding, per hash function (row), the m query
// min-hash values sorted by (value, query id), next to a query id → query
// map whose sketches stay contiguous.
//
// Probing a basic-window sketch against the index (ProbeIndex, Figure 5)
// returns bit signatures only for the queries that share at least one
// min-hash value with the window — the "related query list" R_L — dropping
// those that fail the Lemma 2 prune. The rows serve discovery only: one
// equal-value binary search per row finds R_L, and each related query's
// signature is then built in one word-at-a-time pass over its contiguous
// sketch. The paper's up/down links between rows, which its row-by-row walk
// followed, are not stored. With many queries this replaces m full sketch
// comparisons per window by a handful of binary searches plus work
// proportional to |R_L|.
package qindex

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"vdsms/internal/minhash"
)

// Query pairs a query id with its offline-computed sketch and its length in
// frames (used by the engine for candidate expiry, λL).
type Query struct {
	ID     int
	Length int
	Sketch minhash.Sketch
}

// entry is one <value, query id> cell of the Hash-Query array. Carrying the
// id in every row lets a sharded probe decide ownership of a discovered
// entry without leaving the row.
type entry struct {
	value uint64
	qid   int
}

// Index is the Hash-Query array. Rows are sorted by (value, query id), so
// the structure depends only on the indexed set, not on the order queries
// arrived in. Concurrent readers are safe; Add/Remove require external
// synchronisation.
type Index struct {
	k    int
	rows [][]entry
	// queries holds every indexed query; sketches share the caller's
	// backing arrays, which must not change while indexed.
	queries map[int]Query
}

// cmpEntry orders entries within a row: by value, ties by query id.
func cmpEntry(a, b entry) int {
	return cmp.Or(cmp.Compare(a.value, b.value), cmp.Compare(a.qid, b.qid))
}

// Build constructs the index from the query sketches (BuildIndex of the
// paper, done offline). All sketches must share the same K, ids must be
// unique, and lengths positive. The index retains the sketches.
func Build(queries []Query) (*Index, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("qindex: no queries")
	}
	k := len(queries[0].Sketch)
	if k == 0 {
		return nil, fmt.Errorf("qindex: empty sketch")
	}
	idx := &Index{k: k, rows: make([][]entry, k), queries: make(map[int]Query, len(queries))}
	for _, q := range queries {
		if len(q.Sketch) != k {
			return nil, fmt.Errorf("qindex: query %d sketch has K=%d, want %d", q.ID, len(q.Sketch), k)
		}
		if q.Length <= 0 {
			return nil, fmt.Errorf("qindex: query %d has non-positive length", q.ID)
		}
		if _, dup := idx.queries[q.ID]; dup {
			return nil, fmt.Errorf("qindex: duplicate query id %d", q.ID)
		}
		idx.queries[q.ID] = q
	}
	for i := range idx.rows {
		row := make([]entry, len(queries))
		for j, q := range queries {
			row[j] = entry{value: q.Sketch[i], qid: q.ID}
		}
		slices.SortFunc(row, cmpEntry)
		idx.rows[i] = row
	}
	return idx, nil
}

// Clone returns a deep copy of the index (sketches stay shared: they are
// immutable). Cost O(K·m) straight memory copies — the same order as a
// single incremental Add — which makes copy-on-write churn (clone, then
// mutate the private copy while readers keep probing the original) as
// cheap as in-place mutation was.
func (x *Index) Clone() *Index {
	c := &Index{k: x.k, rows: make([][]entry, len(x.rows)), queries: maps.Clone(x.queries)}
	for i, row := range x.rows {
		c.rows[i] = slices.Clone(row)
	}
	return c
}

// Bytes estimates the index's memory footprint: the 16-byte <value, qid>
// entries of every row plus the query map (its sketches belong to the
// caller and are not counted). The per-stream memory experiments treat
// this as the shared query plane's dominant term.
func (x *Index) Bytes() int {
	const entryBytes = 8 + 8  // value, qid
	const queryBytes = 8 + 40 // map key, Query{ID, Length, Sketch header}
	b := 0
	for _, row := range x.rows {
		b += len(row) * entryBytes
	}
	return b + len(x.queries)*queryBytes
}

// K returns the number of hash functions (rows).
func (x *Index) K() int { return x.k }

// Len returns the number of indexed queries.
func (x *Index) Len() int { return len(x.queries) }

// QueryIDs returns the indexed query ids in row-0 order.
func (x *Index) QueryIDs() []int {
	out := make([]int, len(x.rows[0]))
	for i, e := range x.rows[0] {
		out[i] = e.qid
	}
	return out
}

// SketchOf returns the stored sketch of query id. The slice is the one the
// index was given; callers must not modify it.
func (x *Index) SketchOf(id int) (minhash.Sketch, bool) {
	q, ok := x.queries[id]
	return q.Sketch, ok
}

// LengthOf returns the stored length of query id.
func (x *Index) LengthOf(id int) (int, bool) {
	q, ok := x.queries[id]
	return q.Length, ok
}

// find returns the position in row i where e is or would be inserted.
func (x *Index) find(i int, e entry) int {
	p, _ := slices.BinarySearchFunc(x.rows[i], e, cmpEntry)
	return p
}

// Add subscribes a new query online: each row receives one entry at its
// sorted position. Cost O(K·m) memory moves. The index retains the sketch.
func (x *Index) Add(q Query) error {
	if len(q.Sketch) != x.k {
		return fmt.Errorf("qindex: sketch K=%d, index K=%d", len(q.Sketch), x.k)
	}
	if q.Length <= 0 {
		return fmt.Errorf("qindex: non-positive length")
	}
	if _, dup := x.queries[q.ID]; dup {
		return fmt.Errorf("qindex: query id %d already subscribed", q.ID)
	}
	for i, v := range q.Sketch {
		e := entry{value: v, qid: q.ID}
		x.rows[i] = slices.Insert(x.rows[i], x.find(i, e), e)
	}
	x.queries[q.ID] = q
	return nil
}

// Remove unsubscribes a query online, the inverse of Add. Cost O(K·m)
// memory moves.
func (x *Index) Remove(id int) error {
	q, ok := x.queries[id]
	if !ok {
		return fmt.Errorf("qindex: query id %d not subscribed", id)
	}
	for i, v := range q.Sketch {
		p := x.find(i, entry{value: v, qid: id})
		x.rows[i] = slices.Delete(x.rows[i], p, p+1)
	}
	delete(x.queries, id)
	return nil
}
