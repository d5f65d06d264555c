// Package synth implements the syntax-guided program synthesis of §3.5 of
// the P² paper: enumerating reduction programs over a synthesis hierarchy
// in increasing order of program size, using the Hoare-rule semantics of
// the collectives to prune semantically invalid prefixes.
//
// Two prunings keep the search tractable:
//
//   - Semantic preconditions: a step whose collective preconditions fail on
//     the current state context is discarded (this rejects the Fig. 4
//     programs immediately).
//   - Target bounding: a step that pushes any device's state beyond its
//     goal state can never reach the goal (information never shrinks), so
//     the whole subtree is discarded. This is the operational form of the
//     "only partitioned over reduction axes" requirement (Lemma B.3).
//
// Contexts reached by different prefixes are memoized, so the enumeration
// is a DAG walk rather than a tree walk.
package synth

import (
	"math/bits"
	"sort"
	"time"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
)

// Options tune the synthesizer.
type Options struct {
	// MaxSize is the program-size limit. The paper uses 5; 0 means 5.
	MaxSize int
	// NoMemo disables context memoization (for ablation benchmarks).
	NoMemo bool
}

// DefaultMaxSize is the program-size limit used when Options.MaxSize is
// zero (the paper uses 5).
const DefaultMaxSize = 5

// Result is the outcome of a synthesis run.
type Result struct {
	// Programs are all distinct valid programs implementing the requested
	// reduction, sorted by size then lexicographically by instruction.
	Programs []dsl.Program
	// Explored counts instruction applications attempted (search effort).
	Explored int
	// MemoHits counts contexts served from the memo table.
	MemoHits int
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
}

// candidate is an instruction with its precomputed device groups.
type candidate struct {
	in     dsl.Instruction
	groups [][]int
}

// Candidates enumerates the deduplicated instruction space for h: every
// (slice, form, arg, op) combination that passes validation, keeping one
// representative per distinct (device grouping, op) effect. The order is
// canonical: slice, form, arg, then op.
func Candidates(h *hierarchy.Hierarchy) []dsl.Instruction {
	cands := enumerate(h)
	out := make([]dsl.Instruction, len(cands))
	for i, c := range cands {
		out[i] = c.in
	}
	return out
}

func enumerate(h *hierarchy.Hierarchy) []candidate {
	var out []candidate
	seen := map[string]bool{}
	L := h.NumLevels()
	add := func(in dsl.Instruction) {
		if in.Validate(h) != nil || !in.Admissible(h) {
			return
		}
		groups := in.Groups(h)
		key := groupsKey(groups, in.Op)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, candidate{in: in, groups: groups})
	}
	for slice := 0; slice < L; slice++ {
		for _, op := range collective.Ops {
			add(dsl.Instruction{Slice: slice, Form: dsl.InsideGroup, Op: op})
		}
		for arg := 0; arg < slice; arg++ {
			for _, op := range collective.Ops {
				add(dsl.Instruction{Slice: slice, Form: dsl.Parallel, Arg: arg, Op: op})
			}
			for _, op := range collective.Ops {
				add(dsl.Instruction{Slice: slice, Form: dsl.Master, Arg: arg, Op: op})
			}
		}
	}
	return out
}

func groupsKey(groups [][]int, op collective.Op) string {
	// Compact textual signature; groups are canonical so this is stable.
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(op))
	for _, g := range groups {
		for _, u := range g {
			buf = append(buf, byte(u), byte(u>>8))
		}
		buf = append(buf, 0xff, 0xff)
	}
	return string(buf)
}

type synthesizer struct {
	h       *hierarchy.Hierarchy
	cands   []candidate
	targets []*collective.State
	opts    Options
	memo    map[memoKey][]dsl.Program
	res     *Result
	states  []*collective.State // group scratch for applyCandidate, cap k
}

type memoKey struct {
	h1, h2 uint64
	budget int
}

// Synthesize enumerates every valid reduction program for h of size at
// most opts.MaxSize.
func Synthesize(h *hierarchy.Hierarchy, opts Options) *Result {
	start := time.Now() //p2:timing-ok synthesis wall time is reported in Result.Elapsed, never ranked
	if opts.MaxSize <= 0 {
		opts.MaxSize = DefaultMaxSize
	}
	s := &synthesizer{
		h:      h,
		cands:  enumerate(h),
		opts:   opts,
		memo:   map[memoKey][]dsl.Program{},
		res:    &Result{},
		states: make([]*collective.State, 0, h.K()),
	}
	s.targets = make([]*collective.State, h.K())
	for u := 0; u < h.K(); u++ {
		s.targets[u] = dsl.TargetState(h, u)
	}
	progs := s.suffixes(dsl.NewContext(h), opts.MaxSize)
	// The DFS returns suffix order; sort by size then lexicographic.
	// Rendering both programs inside the comparator dominated large
	// syntheses, so the keys are computed once up front (String is
	// injective over programs, so the order is unchanged).
	keys := make([]string, len(progs))
	for i, p := range progs {
		keys[i] = p.String()
	}
	sort.Sort(&bySizeThenKey{progs: progs, keys: keys})
	s.res.Programs = progs
	s.res.Elapsed = time.Since(start) //p2:timing-ok synthesis wall time is reported in Result.Elapsed, never ranked
	return s.res
}

// bySizeThenKey sorts programs by size then by their precomputed
// rendering, keeping the two slices aligned.
type bySizeThenKey struct {
	progs []dsl.Program
	keys  []string
}

func (b *bySizeThenKey) Len() int { return len(b.progs) }
func (b *bySizeThenKey) Less(i, j int) bool {
	if len(b.progs[i]) != len(b.progs[j]) {
		return len(b.progs[i]) < len(b.progs[j])
	}
	return b.keys[i] < b.keys[j]
}
func (b *bySizeThenKey) Swap(i, j int) {
	b.progs[i], b.progs[j] = b.progs[j], b.progs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

func (s *synthesizer) atGoal(ctx dsl.Context) bool {
	for u, st := range ctx {
		if !st.Equal(s.targets[u]) {
			return false
		}
	}
	return true
}

// withinTargets reports whether every device state is still a subset of its
// goal; once exceeded, the goal is unreachable.
func (s *synthesizer) withinTargets(ctx dsl.Context) bool {
	for u, st := range ctx {
		if !st.SubsetOf(s.targets[u]) {
			return false
		}
	}
	return true
}

func (s *synthesizer) suffixes(ctx dsl.Context, budget int) []dsl.Program {
	if s.atGoal(ctx) {
		// No valid instruction can apply at the goal without exceeding a
		// target, so the empty program is the only suffix.
		return []dsl.Program{nil}
	}
	if budget == 0 {
		return nil
	}
	key := hashContext(ctx, budget)
	if !s.opts.NoMemo {
		if v, ok := s.memo[key]; ok {
			s.res.MemoHits++
			return v
		}
	}
	var out []dsl.Program
	for _, cand := range s.cands {
		s.res.Explored++
		next, err := s.applyCandidate(ctx, cand)
		if err != nil {
			continue
		}
		if !s.withinTargets(next) {
			continue
		}
		for _, suf := range s.suffixes(next, budget-1) {
			prog := make(dsl.Program, 0, len(suf)+1)
			prog = append(prog, cand.in)
			prog = append(prog, suf...)
			out = append(out, prog)
		}
	}
	if !s.opts.NoMemo {
		s.memo[key] = out
	}
	return out
}

// applyCandidate is dsl.Context.ApplyGroups specialized to the
// candidate's precomputed groups and to unwrapped errors: most candidates
// fail their precondition, and only success matters here. The new context
// shares every state with ctx except the ones the step rebuilt, and is
// only allocated once the first group has passed.
func (s *synthesizer) applyCandidate(ctx dsl.Context, cand candidate) (dsl.Context, error) {
	var out dsl.Context
	for _, g := range cand.groups {
		states := s.states[:0]
		for _, u := range g {
			states = append(states, ctx[u])
		}
		res, err := collective.Apply(cand.in.Op, states)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = make(dsl.Context, len(ctx))
			copy(out, ctx)
		}
		for i, u := range g {
			out[u] = res[i]
		}
	}
	return out, nil
}

// hashContext computes a 128-bit hash of the packed context plus the
// remaining budget. Each 64-bit word is folded into two independently
// mixed lanes: a multiply-rotate lane and a splitmix64-finalized lane.
func hashContext(ctx dsl.Context, budget int) memoKey {
	var h1, h2 uint64 = 0x6a09e667f3bcc908, 0x9e3779b97f4a7c15
	var words []uint64
	for _, st := range ctx {
		words = st.AppendWords(words[:0])
		for _, w := range words {
			h1 = bits.RotateLeft64((h1^w)*0x87c37b91114253d5, 31)
			h2 = mix64(h2 + w + 0x9e3779b97f4a7c15)
		}
	}
	return memoKey{h1: h1, h2: h2, budget: budget}
}

// mix64 is the splitmix64 finalizer: a bijection with full avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// BaselineAllReduce is the default implementation the paper compares
// against: a single AllReduce over each full reduction group (one global
// InsideGroup step at the root).
func BaselineAllReduce() dsl.Program {
	return dsl.Program{{Slice: 0, Form: dsl.InsideGroup, Op: collective.AllReduce}}
}
