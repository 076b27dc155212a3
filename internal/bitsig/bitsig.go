// Package bitsig implements the bit vector signature of paper Section V.
// A Signature encodes, for each of the K hash positions, the relation of a
// candidate-sequence sketch value to a query sketch value:
//
//	'>' (Greater) — candidate min-hash above the query's,
//	'=' (Equal)   — minima agree,
//	'<' (Less)    — candidate min-hash below the query's.
//
// The paper lays the three states out as 2-bit codes 00/01/11 in one 2K-bit
// vector so that combining two candidate sequences is a bitwise OR
// (min-combination of sketches maps Greater<Equal<Less onto the OR
// lattice). We store the same information as two K-bit planes:
//
//	lo bit r set ⇔ relation is Equal or Less (the paper's low-order bit),
//	hi bit r set ⇔ relation is Less          (the paper's high-order bit).
//
// OR-ing the planes is exactly the paper's 2K-bit OR; memory is the same
// 2K bits. Lemma 1 becomes sim = (popcount(lo) − popcount(hi)) / K and the
// Lemma 2 prune test becomes popcount(hi) > K(1−δ).
//
// (The lemma in the paper is stated over "even/odd positions" of the
// interleaved layout; taken literally with '='→01 it does not hold, but its
// own proof fixes the intent: n0 = #Greater, n1 = #Less, sim = (K−n0−n1)/K.
// The plane representation implements that proof directly.)
package bitsig

import (
	"fmt"
	"math/bits"

	"vdsms/internal/minhash"
)

// Relation is the per-position comparison outcome.
type Relation uint8

const (
	// Greater: candidate sketch value > query sketch value ('>', code 00).
	Greater Relation = iota
	// Equal: values agree ('=', code 01).
	Equal
	// Less: candidate sketch value < query sketch value ('<', code 11).
	Less
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case Greater:
		return ">"
	case Equal:
		return "="
	case Less:
		return "<"
	}
	return fmt.Sprintf("Relation(%d)", uint8(r))
}

// Compare returns the relation of a candidate value to a query value.
func Compare(cand, query uint64) Relation {
	switch {
	case cand > query:
		return Greater
	case cand == query:
		return Equal
	default:
		return Less
	}
}

// Signature is a 2K-bit relation vector between one candidate sequence and
// one query, stored as two K-bit planes.
type Signature struct {
	K  int
	Lo []uint64 // bit r: Equal or Less at position r
	Hi []uint64 // bit r: Less at position r
}

// words returns the number of 64-bit words per plane for k positions.
func words(k int) int { return (k + 63) / 64 }

// New returns an all-Greater signature for K positions (the identity of the
// OR combination).
func New(k int) *Signature { return &NewSlab(k, 1)[0] }

// NewSlab returns n all-Greater signatures for K positions whose planes are
// carved from one backing array: two allocations for the lot instead of two
// per signature. The signatures are independent (no plane overlaps
// another's), but the array stays reachable while any of them is.
func NewSlab(k, n int) []Signature {
	if k <= 0 {
		panic(fmt.Sprintf("bitsig: K=%d must be positive", k))
	}
	w := words(k)
	back := make([]uint64, 2*w*n)
	sigs := make([]Signature, n)
	for i := range sigs {
		p := back[2*w*i : 2*w*(i+1)]
		sigs[i] = Signature{K: k, Lo: p[:w:w], Hi: p[w:]}
	}
	return sigs
}

// FromSketches builds the signature of a candidate sketch against a query
// sketch (Definition 3). Both sketches must have length K.
func FromSketches(cand, query minhash.Sketch) *Signature {
	if len(cand) != len(query) {
		panic("bitsig: sketch length mismatch")
	}
	s := New(len(cand))
	s.SetSketches(cand, query)
	return s
}

// SetSketches overwrites every position of s with the relation of cand to
// query, 64 positions per plane word and without data-dependent branches:
// the borrow of query−cand is the Greater bit, the borrow of cand−query the
// Less bit. Both sketches must have length K.
func (s *Signature) SetSketches(cand, query minhash.Sketch) {
	if len(cand) != s.K || len(query) != s.K {
		panic("bitsig: sketch length mismatch")
	}
	for w := range s.Lo {
		c := cand[w*64 : min(w*64+64, s.K)]
		gt, lt := relWord(c, query[w*64:w*64+len(c)])
		s.Lo[w] = ^gt & (^uint64(0) >> (64 - len(c)))
		s.Hi[w] = lt
	}
}

// relWord returns the Greater and Less bit words of up to 64 positions,
// shifting each borrow in from the top so the accumulators only ever move
// by one. Kept out of line: inlined, the loop spills the caller's state.
//
//go:noinline
func relWord(c, q []uint64) (gt, lt uint64) {
	q = q[:len(c)]
	for j := len(c) - 1; j >= 0; j-- {
		_, g := bits.Sub64(q[j], c[j], 0)
		_, l := bits.Sub64(c[j], q[j], 0)
		gt = gt<<1 + g
		lt = lt<<1 + l
	}
	return gt, lt
}

// Set records the relation at position r. Positions start as Greater; Set
// with Greater clears the position's bits.
func (s *Signature) Set(r int, rel Relation) {
	if r < 0 || r >= s.K {
		panic(fmt.Sprintf("bitsig: position %d out of [0,%d)", r, s.K))
	}
	w, m := r/64, uint64(1)<<(r%64)
	switch rel {
	case Greater:
		s.Lo[w] &^= m
		s.Hi[w] &^= m
	case Equal:
		s.Lo[w] |= m
		s.Hi[w] &^= m
	case Less:
		s.Lo[w] |= m
		s.Hi[w] |= m
	}
}

// At returns the relation at position r.
func (s *Signature) At(r int) Relation {
	if r < 0 || r >= s.K {
		panic(fmt.Sprintf("bitsig: position %d out of [0,%d)", r, s.K))
	}
	w, m := r/64, uint64(1)<<(r%64)
	switch {
	case s.Hi[w]&m != 0:
		return Less
	case s.Lo[w]&m != 0:
		return Equal
	default:
		return Greater
	}
}

// Or folds other into s position-wise: the signature of the min-combined
// candidate sketch against the same query (paper Section V.A). Both
// signatures must have the same K.
func (s *Signature) Or(other *Signature) {
	if s.K != other.K {
		panic("bitsig: Or K mismatch")
	}
	for i := range s.Lo {
		s.Lo[i] |= other.Lo[i]
		s.Hi[i] |= other.Hi[i]
	}
}

// Clone returns an independent copy.
func (s *Signature) Clone() *Signature {
	c := New(s.K)
	copy(c.Lo, s.Lo)
	copy(c.Hi, s.Hi)
	return c
}

// Counts returns the number of Greater, Equal and Less positions.
func (s *Signature) Counts() (greater, equal, less int) {
	var lo, hi int
	for i := range s.Lo {
		lo += bits.OnesCount64(s.Lo[i])
		hi += bits.OnesCount64(s.Hi[i])
	}
	return s.K - lo, lo - hi, hi
}

// LessCount returns the number of Less positions (the paper's N_s, "number
// of 1 on the odd positions").
func (s *Signature) LessCount() int {
	var hi int
	for i := range s.Hi {
		hi += bits.OnesCount64(s.Hi[i])
	}
	return hi
}

// Similarity evaluates Lemma 1: the estimated Jaccard similarity is the
// fraction of Equal positions, sim = (K − n> − n<)/K.
func (s *Signature) Similarity() float64 {
	_, eq, _ := s.Counts()
	return float64(eq) / float64(s.K)
}

// Prunable evaluates Lemma 2: once the number of Less positions exceeds
// K(1−δ) the candidate (and, by monotonicity of OR, every extension of it)
// can never reach similarity δ against this query.
func (s *Signature) Prunable(delta float64) bool {
	return float64(s.LessCount()) > float64(s.K)*(1-delta)
}

// SizeBits returns the information size of the signature: 2K bits, the
// figure the paper's memory accounting uses.
func (s *Signature) SizeBits() int { return 2 * s.K }
