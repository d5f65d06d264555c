package dsl

import (
	"slices"
	"testing"

	"p2/internal/collective"
	"p2/internal/hierarchy"
	"p2/internal/placement"
)

// deepCopy snapshots a context into states no other context can reach.
func deepCopy(c Context) Context {
	out := make(Context, len(c))
	for i, s := range c {
		out[i] = s.Clone()
	}
	return out
}

// flatHierarchy builds a one-axis reduction hierarchy over k = 4·m leaves
// (a [1 4 m] system reducing its only axis).
func flatHierarchy(t testing.TB, m int) *hierarchy.Hierarchy {
	t.Helper()
	mat, err := placement.NewMatrix([]int{1, 4, m}, []int{4 * m}, [][]int{{1, 4, m}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hierarchy.Build(hierarchy.KindReductionAxes, mat, []int{0}, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestContextSnapshotsSurviveLaterSteps runs programs that share states
// between contexts in every way Apply does — AllReduce/AllGather members
// sharing one union, Broadcast receivers sharing the source, Reduce
// non-roots sharing one empty state, Master leaving devices untouched —
// and checks that every intermediate context is bit-identical, after the
// whole program ran, to a deep snapshot taken when it was produced.
func TestContextSnapshotsSurviveLaterSteps(t *testing.T) {
	h := reductionHierarchy(t)
	progs := []Program{
		{
			{Slice: 1, Form: InsideGroup, Op: collective.Reduce},
			{Slice: 1, Form: Master, Arg: 0, Op: collective.AllReduce},
			{Slice: 1, Form: InsideGroup, Op: collective.Broadcast},
		},
		{
			{Slice: 1, Form: InsideGroup, Op: collective.ReduceScatter},
			{Slice: 1, Form: Parallel, Arg: 0, Op: collective.AllReduce},
			{Slice: 1, Form: InsideGroup, Op: collective.AllGather},
		},
		{
			{Slice: 1, Form: InsideGroup, Op: collective.AllReduce},
			{Slice: 1, Form: Parallel, Arg: 0, Op: collective.AllReduce},
		},
		{
			{Slice: 0, Form: InsideGroup, Op: collective.Reduce},
			{Slice: 0, Form: InsideGroup, Op: collective.Broadcast},
		},
	}
	for _, p := range progs {
		ctx := NewContext(h)
		seen := []Context{ctx}
		snaps := []Context{deepCopy(ctx)}
		for i, in := range p {
			next, err := ctx.Apply(in, h)
			if err != nil {
				t.Fatalf("%v step %d: %v", p, i, err)
			}
			ctx = next
			seen = append(seen, ctx)
			snaps = append(snaps, deepCopy(ctx))
		}
		if !ctx.AtGoal(h) {
			t.Fatalf("%v does not reach the goal", p)
		}
		for i, c := range seen {
			for u := range c {
				got, want := c[u].AppendWords(nil), snaps[i][u].AppendWords(nil)
				if !slices.Equal(got, want) {
					t.Errorf("%v: context after %d steps, leaf %d changed later:\n%v\nwant\n%v",
						p, i, u, c[u], snaps[i][u])
				}
			}
		}
	}
}

// TestRootAllReduceAllocatesConstantStates locks in the copy-on-write
// mechanism: a root-level AllReduce builds one union state shared by every
// device, so its allocation count does not grow with k (a deep-copying
// context allocates at least 2k times here).
func TestRootAllReduceAllocatesConstantStates(t *testing.T) {
	in := Instruction{Slice: 0, Form: InsideGroup, Op: collective.AllReduce}
	allocs := func(m int) float64 {
		h := flatHierarchy(t, m)
		ctx := NewContext(h)
		return testing.AllocsPerRun(50, func() {
			if _, err := ctx.Apply(in, h); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(16) // k = 16 and k = 64
	if large != small || large > 8 {
		t.Errorf("root AllReduce allocs: k=16 %v, k=64 %v; want the same constant ≤ 8", small, large)
	}
}
