package collective

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

// scanRowEmpty reports whether row r has no set bit by scanning its words,
// ignoring the occupancy set.
func scanRowEmpty(s *State, r int) bool {
	for _, w := range s.row(r) {
		if w != 0 {
			return false
		}
	}
	return true
}

func scanNumRows(s *State) int {
	n := 0
	for r := 0; r < s.k; r++ {
		if !scanRowEmpty(s, r) {
			n++
		}
	}
	return n
}

// occMatchesScan reports whether the cached occupancy set agrees with a
// full bit scan, including zero padding past row k-1.
func occMatchesScan(s *State) bool {
	for r := 0; r < len(s.occ)*64; r++ {
		cached := s.occ[r/64]&(1<<(uint(r)%64)) != 0
		if cached != (r < s.k && !scanRowEmpty(s, r)) {
			return false
		}
	}
	return true
}

// checkOracle is Check written the direct way: full row scans and g²
// pairwise overlap tests, never reading the occupancy set.
func checkOracle(op Op, states []*State) error {
	if len(states) < 2 {
		return ErrGroupTooSmall
	}
	overlap := func(a, b *State) bool {
		for i, w := range a.bits {
			if w&b.bits[i] != 0 {
				return true
			}
		}
		return false
	}
	switch op {
	case AllReduce, Reduce, ReduceScatter:
		if scanNumRows(states[0]) == 0 && scanNumRows(states[1]) == 0 {
			return ErrNoData
		}
		for _, st := range states[1:] {
			for r := 0; r < st.k; r++ {
				if scanRowEmpty(states[0], r) != scanRowEmpty(st, r) {
					return ErrRowMismatch
				}
			}
		}
		for i := range states {
			for j := i + 1; j < len(states); j++ {
				if overlap(states[i], states[j]) {
					return ErrOverlap
				}
			}
		}
		if op == ReduceScatter && scanNumRows(states[0])%len(states) != 0 {
			return ErrNotDivisible
		}
		return nil
	case AllGather:
		if scanNumRows(states[0]) == 0 {
			return ErrNoData
		}
		for i := range states {
			for j := i + 1; j < len(states); j++ {
				for r := 0; r < states[i].k; r++ {
					if !scanRowEmpty(states[i], r) && !scanRowEmpty(states[j], r) {
						return ErrRowSetsOverlap
					}
				}
			}
			if scanNumRows(states[i]) != scanNumRows(states[0]) {
				return ErrRowCountMismatch
			}
		}
		return nil
	case Broadcast:
		gain := false
		for _, st := range states[1:] {
			for i, w := range st.bits {
				if w&^states[0].bits[i] != 0 {
					return ErrNotPrefix
				}
			}
			if !slices.Equal(st.bits, states[0].bits) {
				gain = true
			}
		}
		if !gain {
			return ErrNoGain
		}
		return nil
	default:
		return errors.New("unknown op")
	}
}

// snapshot deep-copies a group so later mutation is detectable.
func snapshot(states []*State) [][]uint64 {
	out := make([][]uint64, len(states))
	for i, s := range states {
		out[i] = append(s.AppendWords(nil), s.occ...)
	}
	return out
}

func unchanged(states []*State, snap [][]uint64) bool {
	for i, s := range states {
		if !slices.Equal(append(s.AppendWords(nil), s.occ...), snap[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle runs Check and Apply on one group and reports the
// first disagreement with the oracle, mutated input or stale occupancy
// set it finds, or "" when there is none.
func checkAgainstOracle(op Op, states []*State) string {
	snap := snapshot(states)
	want := checkOracle(op, states)
	if got := Check(op, states); got != want {
		return "Check = " + errString(got) + ", oracle = " + errString(want)
	}
	out, err := Apply(op, states)
	if err != want {
		return "Apply error = " + errString(err) + ", oracle = " + errString(want)
	}
	if !unchanged(states, snap) {
		return op.String() + " mutated its inputs"
	}
	for _, s := range out {
		if !occMatchesScan(s) {
			return op.String() + " output has a stale occupancy set"
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

func TestOccupancyAfterConstructors(t *testing.T) {
	for _, k := range []int{1, 4, 63, 64, 65, 100} {
		c := InitialState(k, k-1).Clone()
		c.Set(k/2, 0)
		cleared := FullState(k).Clone()
		cleared.Clear()
		for name, s := range map[string]*State{
			"NewState":     NewState(k),
			"InitialState": InitialState(k, k/3),
			"FullState":    FullState(k),
			"Clone+Set":    c,
			"Clear":        cleared,
			"random":       randomState(k, uint64(k)*7919),
		} {
			if !occMatchesScan(s) {
				t.Errorf("k=%d %s: occupancy set disagrees with a bit scan", k, name)
			}
			if s.NumRows() != scanNumRows(s) {
				t.Errorf("k=%d %s: NumRows = %d, scan = %d", k, name, s.NumRows(), scanNumRows(s))
			}
		}
	}
	s := NewState(100)
	for _, rc := range [][2]int{{99, 0}, {64, 99}, {63, 64}, {0, 63}} {
		s.Set(rc[0], rc[1])
		if !occMatchesScan(s) {
			t.Fatalf("Set(%d, %d) left a stale occupancy set", rc[0], rc[1])
		}
	}
	if got := s.Rows(); !slices.Equal(got, []int{0, 63, 64, 99}) {
		t.Errorf("Rows = %v", got)
	}
}

// TestOpsAgreeWithOracleOnRandomWalks drives universes of k devices from
// their initial states through random collectives on random groups of 2–8
// devices, keeping each successful result, so the groups cover every
// state shape synthesis produces. Every attempt must match the pairwise
// oracle, leave its inputs unmutated and produce exact occupancy sets.
func TestOpsAgreeWithOracleOnRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, k := range []int{4, 8, 64, 100} {
		devs := make([]*State, k)
		for i := range devs {
			devs[i] = InitialState(k, i)
		}
		applied := 0
		for step := 0; step < 2000; step++ {
			g := 2 + rng.IntN(min(k, 8)-1)
			ids := rng.Perm(k)[:g]
			group := make([]*State, g)
			for i, d := range ids {
				group[i] = devs[d]
			}
			op := Ops[rng.IntN(len(Ops))]
			if msg := checkAgainstOracle(op, group); msg != "" {
				t.Fatalf("k=%d step %d %v on %v: %s", k, step, op, ids, msg)
			}
			if out, err := Apply(op, group); err == nil {
				applied++
				for i, d := range ids {
					devs[d] = out[i]
				}
			}
		}
		if applied == 0 {
			t.Errorf("k=%d: no collective succeeded; the walk tests only failures", k)
		}
	}
}

// randomGroup builds g states over one mostly shared row set (or over
// disjoint row blocks, as ReduceScatter leaves them), each contributing a
// random column set that sometimes overlaps another's, so every Check
// outcome occurs.
func randomGroup(rng *rand.Rand, k, g int) []*State {
	rowSet := func() []int {
		var rows []int
		for r := 0; r < k; r++ {
			if rng.IntN(3) > 0 {
				rows = append(rows, r)
			}
		}
		return rows
	}
	shared := rowSet()
	split := rng.IntN(4) == 0 // ReduceScatter-like disjoint row blocks
	states := make([]*State, g)
	for i := range states {
		states[i] = NewState(k)
		rows := shared
		switch {
		case split:
			rows = nil
			for r := i; r < k; r += g {
				rows = append(rows, r)
			}
		case rng.IntN(5) == 0:
			rows = rowSet()
		}
		for c := 0; c < k; c++ {
			if c%g != i && rng.IntN(20) > 0 {
				continue
			}
			for _, r := range rows {
				states[i].Set(r, c)
			}
		}
	}
	if rng.IntN(4) == 0 { // a superset source for Broadcast
		states[0] = unionAll(states)
	}
	return states
}

func TestCheckMatchesPairwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	seen := map[error]bool{}
	for trial := 0; trial < 3000; trial++ {
		k := []int{4, 8, 16, 100}[trial%4]
		g := 2 + rng.IntN(7)
		op := Ops[rng.IntN(len(Ops))]
		states := randomGroup(rng, k, g)
		seen[checkOracle(op, states)] = true
		if msg := checkAgainstOracle(op, states); msg != "" {
			t.Fatalf("trial %d: %v over %d states (k=%d): %s", trial, op, g, k, msg)
		}
	}
	for _, err := range []error{nil, ErrRowMismatch, ErrOverlap, ErrNotDivisible,
		ErrRowSetsOverlap, ErrRowCountMismatch, ErrNotPrefix} {
		if !seen[err] {
			t.Errorf("the random groups never produced %v", errString(err))
		}
	}
}

func TestApplySharesEqualOutputs(t *testing.T) {
	in := []*State{InitialState(4, 0), InitialState(4, 1), InitialState(4, 2)}
	ar, _ := Apply(AllReduce, in)
	if ar[0] != ar[1] || ar[1] != ar[2] {
		t.Error("AllReduce members do not share the union state")
	}
	red, _ := Apply(Reduce, in)
	if red[1] != red[2] || red[0] == red[1] || red[1].PopCount() != 0 {
		t.Error("Reduce non-roots do not share one empty state")
	}
	bc, err := Apply(Broadcast, []*State{red[0], red[1], red[2]})
	if err != nil {
		t.Fatal(err)
	}
	if bc[0] != red[0] || bc[1] != red[0] || bc[2] != red[0] {
		t.Error("Broadcast receivers do not share the source")
	}
	rs, _ := Apply(ReduceScatter, []*State{InitialState(4, 0), InitialState(4, 1)})
	if rs[0] == rs[1] {
		t.Error("ReduceScatter outputs share a state")
	}
}
