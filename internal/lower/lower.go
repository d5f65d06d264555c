// Package lower translates synthesized reduction programs from the
// synthesis-hierarchy universe to sequences of physical collective steps
// (§3.4 of the P² paper: "lowering ... applies the generated grouping
// patterns to non-reduction axes when forming device groups").
//
// A lowered program is the common IR consumed by both the analytic cost
// model (internal/cost, the paper's simulator) and the event-level network
// emulator (internal/netsim, our testbed substitute): a list of steps, each
// a collective performed simultaneously by disjoint physical device groups,
// annotated with the fraction of the payload each participant holds.
package lower

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"p2/internal/collective"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
)

// Step is one lowered reduction step: every group performs Op concurrently.
type Step struct {
	// Op is the collective operation.
	Op collective.Op
	// Groups are the participating physical device groups. Member order
	// is significant: the first device is the root for Reduce/Broadcast
	// and chunk blocks are assigned in order for ReduceScatter.
	Groups [][]int
	// Rows is the number of payload chunks (universe rows) each
	// participant holds entering the step (for Broadcast: the source's).
	Rows int
	// RowsOut is the chunk count a participant holds after the step (for
	// Reduce: the root's; non-roots drop to zero).
	RowsOut int
	// K is the chunk granularity: a full per-device payload is K chunks.
	K int
}

// FracIn returns the input payload fraction (Rows/K).
func (s Step) FracIn() float64 { return float64(s.Rows) / float64(s.K) }

// FracOut returns the output payload fraction (RowsOut/K).
func (s Step) FracOut() float64 { return float64(s.RowsOut) / float64(s.K) }

// GroupSize returns the (uniform) group size of the step.
func (s Step) GroupSize() int { return len(s.Groups[0]) }

// Program is a lowered reduction program.
type Program struct {
	// Steps in execution order.
	Steps []Step
	// NumDevices is the physical device count of the placement.
	NumDevices int
	// K is the synthesis-universe size (chunks per payload).
	K int
	// Source is the DSL program this was lowered from.
	Source dsl.Program
}

// Lower lowers a DSL program against its synthesis hierarchy. It re-runs
// the universe semantics to annotate every step with its chunk counts, so
// it fails with the same error a semantic check would.
func Lower(p dsl.Program, h *hierarchy.Hierarchy) (*Program, error) {
	s := Start(p, h)
	for !s.Done() {
		if _, err := s.Next(); err != nil {
			return nil, err
		}
	}
	return s.Program(), nil
}

// Stepper lowers a program one step at a time, so a consumer scoring the
// steps as they appear can abandon the program — and the remaining
// universe-semantics work — as soon as its partial cost disqualifies it
// (the planning engine's early-exit pruning). Lower is Start + draining
// Next, so a drained Stepper is byte-identical to Lower.
type Stepper struct {
	h   *hierarchy.Hierarchy
	src dsl.Program
	ctx dsl.Context
	out *Program
	i   int
}

// Start begins lowering p against h.
func Start(p dsl.Program, h *hierarchy.Hierarchy) *Stepper {
	return &Stepper{
		h:   h,
		src: p,
		ctx: dsl.NewContext(h),
		out: &Program{
			NumDevices: h.K() * h.Replicas(),
			K:          h.K(),
			Source:     p.Clone(),
		},
	}
}

// Done reports whether every step has been lowered.
func (s *Stepper) Done() bool { return s.i >= len(s.src) }

// Next lowers the next step, failing with the same error a full Lower
// would. Calling Next past the end panics.
func (s *Stepper) Next() (Step, error) {
	h, in, i := s.h, s.src[s.i], s.i
	reps := h.Replicas()
	leafGroups := in.Groups(h)
	rows := s.ctx[leafGroups[0][0]].NumRows()
	next, err := s.ctx.ApplyGroups(in, leafGroups)
	if err != nil {
		return Step{}, fmt.Errorf("lower: step %d: %w", i, err)
	}
	var rowsOut int
	switch in.Op {
	case collective.Reduce:
		rowsOut = next[leafGroups[0][0]].NumRows() // root keeps the rows
	default:
		rowsOut = next[leafGroups[0][len(leafGroups[0])-1]].NumRows()
	}
	n := len(leafGroups[0]) // groups are uniform
	phys := make([][]int, 0, len(leafGroups)*reps)
	flat := make([]int, len(leafGroups)*reps*n)
	for r := 0; r < reps; r++ {
		for _, g := range leafGroups {
			pg := flat[:n:n]
			flat = flat[n:]
			for gi, u := range g {
				pg[gi] = h.Leaves[u][r]
			}
			phys = append(phys, pg)
		}
	}
	sortGroupsByFirst(phys)
	st := Step{
		Op:      in.Op,
		Groups:  phys,
		Rows:    rows,
		RowsOut: rowsOut,
		K:       h.K(),
	}
	s.out.Steps = append(s.out.Steps, st)
	s.ctx = next
	s.i++
	return st, nil
}

// Program returns the lowered program accumulated so far; it is complete
// once Done reports true.
func (s *Stepper) Program() *Program { return s.out }

// Key returns a canonical fingerprint of the lowered step sequence — the
// (G1,C1)...(Gn,Cn) form used to compare expressiveness of synthesis
// hierarchies (Definition 3.1). Chunk annotations are excluded: two
// hierarchies chunk the same payload differently without changing the
// communication structure.
func (p *Program) Key() string {
	var b strings.Builder
	for _, st := range p.Steps {
		fmt.Fprintf(&b, "%s:", st.Op)
		for _, g := range st.Groups {
			b.WriteByte('{')
			for i, d := range g {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", d)
			}
			b.WriteByte('}')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// String renders the lowered program compactly, e.g.
// "ReduceScatter×8(g=2, 1/1); AllReduce×8(g=2, 1/2); AllGather×8(g=2, 1/2)".
func (p *Program) String() string {
	parts := make([]string, len(p.Steps))
	for i, st := range p.Steps {
		parts[i] = fmt.Sprintf("%s×%d(g=%d, %d/%d)",
			st.Op, len(st.Groups), st.GroupSize(), st.Rows, st.K)
	}
	return strings.Join(parts, "; ")
}

// Validate checks structural invariants of a lowered program: groups within
// a step are disjoint, device ids are in range, and chunk counts are
// positive. It is used by property tests and by consumers that accept
// externally built programs.
func (p *Program) Validate() error {
	if len(p.Steps) == 0 {
		return fmt.Errorf("lower: empty program")
	}
	for i, st := range p.Steps {
		if st.Rows <= 0 || st.K <= 0 {
			return fmt.Errorf("lower: step %d has non-positive chunk counts", i)
		}
		if len(st.Groups) == 0 {
			return fmt.Errorf("lower: step %d has no groups", i)
		}
		seen := map[int]bool{}
		size := len(st.Groups[0])
		for _, g := range st.Groups {
			if len(g) != size {
				return fmt.Errorf("lower: step %d has ragged groups", i)
			}
			if len(g) < 2 {
				return fmt.Errorf("lower: step %d has a singleton group", i)
			}
			for _, d := range g {
				if d < 0 || d >= p.NumDevices {
					return fmt.Errorf("lower: step %d device %d out of range", i, d)
				}
				if seen[d] {
					return fmt.Errorf("lower: step %d device %d in two groups", i, d)
				}
				seen[d] = true
			}
		}
	}
	return nil
}

// sortGroupsByFirst orders a step's groups by their first device. Groups
// are disjoint, so first devices are distinct and the order is unique:
// any sort, stable or not, gives the same result.
func sortGroupsByFirst(groups [][]int) {
	slices.SortFunc(groups, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
}
