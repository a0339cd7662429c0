// Package match implements the Production Process Planner's partial
// matching of configuration DAGs against cached "golden" images — the
// three tests the paper defines in §3.2:
//
//   - Subset Test: every operation performed on the cached image is also
//     required by the requested machine's DAG.
//   - Prefix Test: an operation may appear on the cached image only if
//     all of its DAG predecessors were also performed.
//   - Partial Order Test: the order in which the cached image's
//     operations were performed is a linear extension of the DAG's
//     partial order restricted to those operations.
//
// A successful match yields a residual plan: the topologically sorted
// actions still to execute after cloning (Figure 3 steps 3–5).
//
// Both sides of a match are compiled before the tests run. The request
// side is the graph's dag.Index — node positions, the nodes carrying
// each action key, ancestor sets as bitsets, the topological order —
// built once per graph and shared by every bid on it. The image side is
// its history's action keys, computed once when the warehouse publishes
// the image and carried in Candidate.Keys. What is left per candidate
// is one map lookup per performed action and bitset arithmetic on
// scratch space that lives on the stack; node IDs are only touched to
// build the Result of a candidate that passed.
package match

import (
	"fmt"
	"math/bits"

	"vmplants/internal/core"
	"vmplants/internal/dag"
)

// Test identifies which of the paper's matching tests failed.
type Test string

// Failure reasons.
const (
	TestHardware     Test = "hardware"
	TestSubset       Test = "subset"
	TestPrefix       Test = "prefix"
	TestPartialOrder Test = "partial-order"
)

// Result reports the outcome of matching one cached image against one
// requested DAG.
type Result struct {
	// OK is true when all tests pass.
	OK bool
	// Failed names the first test that failed (zero when OK).
	Failed Test
	// Reason is a human-readable explanation of a failure.
	Reason string
	// Matched lists the DAG node IDs satisfied by the cached image, in
	// the image's performed order.
	Matched []string
	// Residual lists the DAG node IDs still to execute, in a
	// deterministic topological order consistent with Matched as prefix.
	Residual []string
}

// Score is the matcher's preference value: the number of requested
// operations the image already has performed. The PPP picks the
// feasible image with the highest score (most configuration work
// already done); ties break toward smaller disk (cheaper state).
func (r Result) Score() int { return len(r.Matched) }

// Evaluate runs the three DAG tests for a cached image whose recorded
// configuration history is performed (in execution order) against the
// requested graph g. Hardware is checked separately; see Best.
func Evaluate(g *dag.Graph, performed []dag.Action) Result {
	ix := g.Index()
	var s scratch
	r, m := evaluate(ix, dag.Keys(performed), &s)
	switch {
	case r.Failed == TestSubset:
		r.Reason = fmt.Sprintf("image operation %d (%s) is not required by the request", m.op, performed[m.op].Op)
	case r.Failed == TestPrefix:
		r.Reason = fmt.Sprintf("image has %s but not its prerequisite %s", ix.ID(m.node), ix.ID(m.prereq))
	case m.cyclic:
		r.Reason = "request DAG is cyclic"
	case r.Failed == TestPartialOrder:
		r.Reason = "image operations were performed in an order the DAG forbids"
	}
	return r
}

// miss says where a failed evaluation stopped: enough for Evaluate to
// word Result.Reason, which Best never reads.
type miss struct {
	op           int   // subset: index of the history's foreign operation
	node, prereq int32 // prefix: a matched node and its first unmatched prerequisite
	cyclic       bool  // partial order: the tests passed but the request has no order
}

// scratch is evaluate's working memory, reused from candidate to
// candidate. The arrays keep it on the caller's stack for requests of
// up to 254 actions and histories of up to 32.
type scratch struct {
	words [2 * 4]uint64
	bound [32]int32
}

// evaluate binds each key of an image's history to a node of the
// compiled request and runs the three tests on the binding.
func evaluate(ix *dag.Index, keys []string, s *scratch) (Result, miss) {
	w := ix.Words()
	sets := s.words[:]
	if 2*w > len(sets) {
		sets = make([]uint64, 2*w)
	}
	have, done := sets[:w], sets[w:2*w]
	clear(have)
	// Every history starts from the blank machine, so START counts as
	// performed and an ancestor set can be compared whole.
	have[0] = 1 << dag.StartPos
	bound := s.bound[:0]

	// Subset test: bind each performed action to a distinct DAG node.
	// When several unmatched nodes share the action's key, bind in an
	// ancestor-respecting order — prefer the first node whose DAG
	// predecessors are all matched already. A valid history lists every
	// node after its ancestors, so a greedy first-unmatched binding
	// could pick a same-key node whose prerequisites the image lacks
	// and spuriously fail the prefix test.
	for i, k := range keys {
		pick := int32(-1)
		for p := ix.First(k); p >= 0; p = ix.Next(p) {
			if has(have, p) {
				continue
			}
			if pick < 0 {
				pick = p
			}
			if missing(ix.Ancestors(p), have) < 0 {
				pick = p
				break
			}
		}
		if pick < 0 {
			return Result{Failed: TestSubset}, miss{op: i}
		}
		set(have, pick)
		bound = append(bound, pick)
	}

	// Prefix test: every matched node's ancestors must be matched.
	for _, p := range bound {
		if a := missing(ix.Ancestors(p), have); a >= 0 {
			return Result{Failed: TestPrefix}, miss{node: p, prereq: a}
		}
	}

	// Partial order test: performed order must be a linear extension,
	// which for an ancestor-closed set means every node comes after all
	// of its ancestors.
	clear(done)
	done[0] = 1 << dag.StartPos
	for _, p := range bound {
		if missing(ix.Ancestors(p), done) >= 0 {
			return Result{Failed: TestPartialOrder}, miss{}
		}
		set(done, p)
	}
	topo := ix.Topo()
	if topo == nil {
		return Result{Failed: TestPartialOrder}, miss{cyclic: true}
	}

	// Residual plan: topological order of unmatched nodes. Because the
	// matched set is ancestor-closed (prefix test), removing it leaves a
	// well-formed suffix; the full order filtered to unmatched nodes is
	// a valid execution order.
	r := Result{OK: true, Matched: make([]string, len(bound))}
	for i, p := range bound {
		r.Matched[i] = ix.ID(p)
	}
	if left := ix.Len() - 2 - len(bound); left > 0 {
		r.Residual = make([]string, 0, left)
		for _, p := range topo {
			if p != dag.FinishPos && !has(have, p) {
				r.Residual = append(r.Residual, ix.ID(p))
			}
		}
	}
	return r, miss{}
}

func has(set []uint64, p int32) bool { return set[p/64]&(1<<(p%64)) != 0 }

func set(set []uint64, p int32) { set[p/64] |= 1 << (p % 64) }

// missing returns the lowest position in need that have lacks, or -1
// when have covers need.
func missing(need, have []uint64) int32 {
	for w, x := range need {
		if x &^= have[w]; x != 0 {
			return int32(w*64 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

// Candidate pairs a cached image's identity with what the matcher needs
// to know about it.
type Candidate struct {
	// ID names the golden image (warehouse key).
	ID string
	// Hardware is the image's checkpointed hardware configuration.
	Hardware core.HardwareSpec
	// Performed is the image's recorded configuration history, in
	// execution order, starting from a blank machine.
	Performed []dag.Action
	// Keys is dag.Keys(Performed), which the warehouse computes when it
	// publishes the image. Best derives it when it is absent.
	Keys []string
}

// Ranked is a candidate together with its evaluation.
type Ranked struct {
	Candidate Candidate
	Result    Result
}

// Best evaluates every candidate against the request and returns the
// feasible matches sorted best-first: highest score, then smallest disk,
// then lexicographically smallest ID for determinism. The boolean is
// false when no candidate passes all tests.
func Best(spec core.HardwareSpec, g *dag.Graph, cands []Candidate) (Ranked, []Ranked, bool) {
	ix := g.Index()
	var s scratch
	var feasible []Ranked
	for _, c := range cands {
		if !c.Hardware.Satisfies(spec) {
			continue
		}
		keys := c.Keys
		if len(keys) != len(c.Performed) {
			keys = dag.Keys(c.Performed)
		}
		r, _ := evaluate(ix, keys, &s)
		if !r.OK {
			continue
		}
		if feasible == nil {
			feasible = make([]Ranked, 0, len(cands))
		}
		feasible = append(feasible, Ranked{Candidate: c, Result: r})
	}
	if len(feasible) == 0 {
		return Ranked{}, nil, false
	}
	sortRanked(feasible)
	return feasible[0], feasible, true
}

func sortRanked(rs []Ranked) {
	// Insertion sort: candidate lists are small and this avoids pulling
	// in sort for a three-key comparison.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && better(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func better(a, b Ranked) bool {
	if a.Result.Score() != b.Result.Score() {
		return a.Result.Score() > b.Result.Score()
	}
	if a.Candidate.Hardware.DiskMB != b.Candidate.Hardware.DiskMB {
		return a.Candidate.Hardware.DiskMB < b.Candidate.Hardware.DiskMB
	}
	return a.Candidate.ID < b.Candidate.ID
}

// TemplateEvaluate is the ablation baseline modeled on template-based
// provisioning (VMware VirtualCenter server templates, paper §5): a
// cached image is usable only when its configuration history covers the
// requested DAG *exactly* — same operations, nothing left to configure.
// There is no partial credit: the result is either a full match with an
// empty residual, or a miss.
func TemplateEvaluate(g *dag.Graph, performed []dag.Action) Result {
	r := Evaluate(g, performed)
	if !r.OK {
		return r
	}
	if len(r.Residual) != 0 {
		return Result{
			Failed: TestSubset,
			Reason: fmt.Sprintf("template match requires exact configuration; %d operations missing", len(r.Residual)),
		}
	}
	return r
}
