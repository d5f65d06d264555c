// Package collective formalizes the five collective operations of the P²
// paper (§3.2): AllReduce, ReduceScatter, AllGather, Reduce and Broadcast,
// with their Hoare-triple semantics over per-device state matrices.
//
// A device state is a k×k boolean matrix where k is the number of devices
// in the reduction universe. The data is conceptually split into k chunks;
// row r of the matrix describes chunk r, and bit (r, j) means device j has
// contributed its original chunk r to the reduction result this device
// holds. Initially device i holds its own full data: column i is all ones.
// The goal state of an all-reduce is the all-ones matrix on every device.
package collective

import (
	"fmt"
	"math/bits"
	"strings"
)

// State is a k×k boolean matrix stored as k rows of packed 64-bit words,
// plus a k-bit row-occupancy set (bit r set iff row r is non-empty) that
// row-set queries read instead of scanning the rows.
//
// A State is immutable once built: Set, Clear and the package's own
// builders only ever touch a state that has not been handed out yet.
// Apply relies on this to share one output state between group members
// (and with its inputs, for Broadcast), and dsl.Context relies on it to
// copy contexts by pointer. Callers must Clone before mutating a state
// they did not build.
type State struct {
	k     int
	words int      // words per row, and words of occ
	bits  []uint64 // k * words, row-major
	occ   []uint64 // row-occupancy set: bit r set iff row r has a set bit
}

// NewState returns the empty (all zero) k×k state.
func NewState(k int) *State {
	if k <= 0 {
		panic(fmt.Sprintf("collective: NewState(%d)", k))
	}
	w := (k + 63) / 64
	buf := make([]uint64, (k+1)*w)
	return &State{k: k, words: w, bits: buf[: k*w : k*w], occ: buf[k*w:]}
}

// InitialState returns the state of device i before any reduction: every
// chunk present, contributed only by device i (column i all ones).
func InitialState(k, i int) *State {
	s := NewState(k)
	s.checkIdx(0, i)
	for r := 0; r < k; r++ {
		s.bits[r*s.words+i/64] |= 1 << (uint(i) % 64)
	}
	fillOnes(s.occ, k)
	return s
}

// FullState returns the all-ones goal state.
func FullState(k int) *State {
	s := NewState(k)
	for r := 0; r < k; r++ {
		fillOnes(s.row(r), k)
	}
	fillOnes(s.occ, k)
	return s
}

// fillOnes sets the first n bits of the packed words w.
func fillOnes(w []uint64, n int) {
	for j := range w {
		w[j] = ^uint64(0)
	}
	if n%64 != 0 {
		w[len(w)-1] = 1<<(uint(n)%64) - 1
	}
}

// K returns the universe size.
func (s *State) K() int { return s.k }

// Set sets bit (row, col). Only call it on a state still being built.
func (s *State) Set(row, col int) {
	s.checkIdx(row, col)
	s.bits[row*s.words+col/64] |= 1 << (uint(col) % 64)
	s.occ[row/64] |= 1 << (uint(row) % 64)
}

// Get reports bit (row, col).
func (s *State) Get(row, col int) bool {
	s.checkIdx(row, col)
	return s.bits[row*s.words+col/64]&(1<<(uint(col)%64)) != 0
}

func (s *State) checkIdx(row, col int) {
	if row < 0 || row >= s.k || col < 0 || col >= s.k {
		panic(fmt.Sprintf("collective: index (%d,%d) out of range for k=%d", row, col, s.k))
	}
}

// row returns the packed words of one row.
func (s *State) row(r int) []uint64 { return s.bits[r*s.words : (r+1)*s.words] }

// RowEmpty reports whether row r has no bits set.
func (s *State) RowEmpty(r int) bool {
	return s.occ[r/64]&(1<<(uint(r)%64)) == 0
}

// RowPopCount returns the number of set bits in row r.
func (s *State) RowPopCount(r int) int {
	n := 0
	for _, w := range s.row(r) {
		n += bits.OnesCount64(w)
	}
	return n
}

// Rows returns the indices of non-empty rows in increasing order — the
// "rows" operator of Fig. 8 (the data chunks this device holds).
func (s *State) Rows() []int {
	out := make([]int, 0, s.NumRows())
	for i, w := range s.occ {
		for ; w != 0; w &= w - 1 {
			out = append(out, i*64+bits.TrailingZeros64(w))
		}
	}
	return out
}

// NumRows returns the number of non-empty rows.
func (s *State) NumRows() int {
	n := 0
	for _, w := range s.occ {
		n += bits.OnesCount64(w)
	}
	return n
}

// PopCount returns the total number of set bits — the information content.
func (s *State) PopCount() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a deep copy, the only way to get a mutable state from a
// shared one.
func (s *State) Clone() *State {
	c := NewState(s.k)
	copy(c.bits, s.bits)
	copy(c.occ, s.occ)
	return c
}

// Clear zeroes the state in place. Only call it on a state still being
// built.
func (s *State) Clear() {
	clear(s.bits)
	clear(s.occ)
}

// Equal reports exact equality.
func (s *State) Equal(o *State) bool {
	if s.k != o.k {
		return false
	}
	for i, w := range s.bits {
		if w != o.bits[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports s ≤ o: every bit of s is set in o.
func (s *State) SubsetOf(o *State) bool {
	if s.k != o.k {
		return false
	}
	for i, w := range s.bits {
		if w&^o.bits[i] != 0 {
			return false
		}
	}
	return true
}

// StrictSubsetOf reports s < o.
func (s *State) StrictSubsetOf(o *State) bool {
	return s.SubsetOf(o) && !s.Equal(o)
}

// IsFull reports whether the state is the all-ones goal.
func (s *State) IsFull() bool {
	return s.PopCount() == s.k*s.k
}

// unionInto ORs o into s (s must have the same k and still be being
// built).
func (s *State) unionInto(o *State) {
	for i, w := range o.bits {
		s.bits[i] |= w
	}
	for i, w := range o.occ {
		s.occ[i] |= w
	}
}

// copyRow copies row r of o into s (s must still be being built).
func (s *State) copyRow(o *State, r int) {
	copy(s.row(r), o.row(r))
	if !o.RowEmpty(r) {
		s.occ[r/64] |= 1 << (uint(r) % 64)
	}
}

// sameRowSet reports whether s and o have identical non-empty-row sets.
func (s *State) sameRowSet(o *State) bool {
	for i, w := range s.occ {
		if w != o.occ[i] {
			return false
		}
	}
	return true
}

// rowSetsDisjoint reports whether s and o have no common non-empty row
// index (the rows ⃝⋆ check of rule R-AllGather).
func (s *State) rowSetsDisjoint(o *State) bool {
	for i, w := range s.occ {
		if w&o.occ[i] != 0 {
			return false
		}
	}
	return true
}

// AppendWords appends the packed representation to dst; used for hashing
// state contexts during synthesis memoization.
func (s *State) AppendWords(dst []uint64) []uint64 {
	return append(dst, s.bits...)
}

// String renders the matrix with '#' for set bits and '.' for clear ones,
// one row per line — useful in tests and error messages.
func (s *State) String() string {
	var b strings.Builder
	for r := 0; r < s.k; r++ {
		for c := 0; c < s.k; c++ {
			if s.Get(r, c) {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		if r != s.k-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
