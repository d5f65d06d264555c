package collective

import "testing"

// FuzzCheck decodes a group of states from bytes and checks that Check
// agrees with the pairwise oracle, that Check and Apply leave their inputs
// unmutated, and that Apply's outputs carry exact occupancy sets.
//
// Layout: data[0] picks the op, data[1] the universe size k ∈ [1, 100],
// data[2] the group size g ∈ [2, 8]; each following byte triple (d, r, c)
// sets bit (r%k, c%k) of state d%g, or, when d's high bit is set, the
// whole column c%k of that state.
func FuzzCheck(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0x80, 0, 0, 0x81, 0, 1})                 // AllReduce of two initial states
	f.Add([]byte{1, 3, 0, 0x80, 0, 0, 0x81, 0, 1, 0x80, 0, 2})     // ReduceScatter, 3 rows over 2
	f.Add([]byte{2, 99, 6, 0, 1, 2, 1, 70, 3, 2, 5, 5, 3, 90, 90}) // AllGather, multi-word k
	f.Add([]byte{4, 4, 1, 0x80, 0, 0, 0x80, 0, 1, 0x81, 0, 1})     // Broadcast with gain
	f.Add([]byte{3, 7, 2, 0x80, 0, 0, 0x81, 0, 0})                 // Reduce with overlap
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		op := Ops[int(data[0])%len(Ops)]
		k := 1 + int(data[1])%100
		g := 2 + int(data[2])%7
		states := make([]*State, g)
		for i := range states {
			states[i] = NewState(k)
		}
		for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
			s := states[int(rest[0]&0x7f)%g]
			r, c := int(rest[1])%k, int(rest[2])%k
			if rest[0]&0x80 == 0 {
				s.Set(r, c)
				continue
			}
			for r := 0; r < k; r++ {
				s.Set(r, c)
			}
		}
		if msg := checkAgainstOracle(op, states); msg != "" {
			t.Fatalf("%v over %d states (k=%d): %s", op, g, k, msg)
		}
	})
}
