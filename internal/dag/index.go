package dag

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Positions of the two markers in every graph's insertion order:
// newGraph inserts them first and nothing removes a node.
const (
	StartPos  = 0
	FinishPos = 1
)

// Index is what matching (package match) and Validate need from a
// graph's structure, derived once per graph instead of once per use.
// Nodes are numbered by insertion position (markers included, see
// StartPos and FinishPos) and every set of nodes is a bitset over those
// numbers. An Index is immutable; Graph.Index hands the same one to
// every caller until the graph is mutated.
type Index struct {
	ids   []string         // node ID by position
	first map[string]int32 // action key → first position carrying it
	next  []int32          // next position with the same key, -1 at the end
	words int              // uint64 words per bitset
	anc   []uint64         // words per position: the nodes it is reachable from, itself excluded
	topo  []int32          // positions in TopoSort order; nil when cyclic
	cycle error            // why topo is nil
	valid error            // Validate's verdict
}

// Index returns the graph's derived index, building it on first use
// after construction or mutation.
func (g *Graph) Index() *Index {
	if ix := g.idx.Load(); ix != nil {
		return ix
	}
	// Two goroutines may both build; the indexes are equal and either
	// store is fine.
	ix := g.buildIndex()
	g.idx.Store(ix)
	return ix
}

// Len is the number of node positions, markers included.
func (ix *Index) Len() int { return len(ix.ids) }

// Words is the length of a bitset over the positions.
func (ix *Index) Words() int { return ix.words }

// ID names the node at position p.
func (ix *Index) ID(p int32) string { return ix.ids[p] }

// First returns the first position, in insertion order, whose action
// has the given key, or -1.
func (ix *Index) First(key string) int32 {
	if p, ok := ix.first[key]; ok {
		return p
	}
	return -1
}

// Next returns the next position after p with the same action key, or
// -1.
func (ix *Index) Next(p int32) int32 { return ix.next[p] }

// Ancestors is the bitset of positions from which p is reachable, p
// itself excluded. START is in it for every node of a valid graph. The
// slice is shared; callers must not write to it.
func (ix *Index) Ancestors(p int32) []uint64 {
	return ix.anc[int(p)*ix.words : (int(p)+1)*ix.words]
}

// Topo lists every position in TopoSort order, or is nil when the graph
// is cyclic. Shared; callers must not write to it.
func (ix *Index) Topo() []int32 { return ix.topo }

func (g *Graph) buildIndex() *Index {
	n := len(g.order)
	ix := &Index{
		ids:   g.order[:n:n], // AddNode only appends, so this prefix never changes
		first: make(map[string]int32, n),
		next:  make([]int32, n),
		words: (n + 63) / 64,
	}

	// Per action key, the chain of positions carrying it in insertion
	// order (built back to front, so no chain is ever walked).
	acts := make([]Action, n)
	for p, id := range g.order {
		acts[p] = g.nodes[id].Action
	}
	keys := Keys(acts)
	for p := int32(n) - 1; p >= 0; p-- {
		ix.next[p] = -1
		if p == StartPos || p == FinishPos {
			continue
		}
		if q, ok := ix.first[keys[p]]; ok {
			ix.next[p] = q
		}
		ix.first[keys[p]] = p
	}

	// Successor lists by position, flattened: off[p]..off[p+1] in adj.
	pos := make(map[string]int32, n)
	for p, id := range g.order {
		pos[id] = int32(p)
	}
	off := make([]int32, n+1)
	adj := make([]int32, 0, 2*n)
	indeg := make([]int32, n)
	for p, id := range g.order {
		for _, to := range g.succ[id] {
			adj = append(adj, pos[to])
			indeg[pos[to]]++
		}
		off[p+1] = int32(len(adj))
	}

	ix.valid = degreeCheck(ix.ids, off, indeg)

	// Kahn's algorithm, always taking the ready node earliest in
	// insertion order: the lowest set bit of ready.
	ready := make([]uint64, ix.words)
	for p := range indeg {
		if indeg[p] == 0 {
			ready[p/64] |= 1 << (p % 64)
		}
	}
	topo := make([]int32, 0, n)
	for {
		p := lowest(ready)
		if p < 0 {
			break
		}
		ready[p/64] &^= 1 << (p % 64)
		topo = append(topo, p)
		for _, to := range adj[off[p]:off[p+1]] {
			if indeg[to]--; indeg[to] == 0 {
				ready[to/64] |= 1 << (to % 64)
			}
		}
	}
	if len(topo) == n {
		ix.topo = topo
	} else {
		ix.cycle = errors.New("dag: cycle detected")
		for p, id := range g.order {
			if indeg[p] > 0 {
				ix.cycle = fmt.Errorf("dag: cycle involving node %q", id)
				break
			}
		}
		if ix.valid == nil {
			ix.valid = ix.cycle
		}
	}

	// Ancestor sets: push each node's set, plus the node, along its out
	// edges. In topological order one pass completes them; a cyclic
	// graph (which only match.Evaluate's direct callers can present)
	// repeats the pass over insertion order until nothing changes.
	ix.anc = make([]uint64, n*ix.words)
	seq := ix.topo
	if seq == nil {
		seq = make([]int32, n)
		for p := range seq {
			seq[p] = int32(p)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range seq {
			from := ix.Ancestors(p)
			for _, to := range adj[off[p]:off[p+1]] {
				into := ix.Ancestors(to)
				for w := range into {
					add := from[w]
					if w == int(p)/64 {
						add |= 1 << (p % 64)
					}
					if into[w]|add != into[w] {
						into[w] |= add
						changed = true
					}
				}
			}
		}
		if ix.topo != nil {
			break
		}
	}
	for p := 0; p < n; p++ {
		ix.anc[p*ix.words+p/64] &^= 1 << (p % 64) // a node on a cycle reaches itself
	}

	if ix.valid == nil {
		ix.valid = reachCheck(ix)
	}
	return ix
}

// degreeCheck is the first part of Validate: START is the only source
// and FINISH the only sink.
func degreeCheck(ids []string, off, indeg []int32) error {
	for p, id := range ids {
		in, out := indeg[p], off[p+1]-off[p]
		switch {
		case p == StartPos:
			if in != 0 {
				return errors.New("dag: START has incoming edges")
			}
		case p == FinishPos:
			if out != 0 {
				return errors.New("dag: FINISH has outgoing edges")
			}
		case in == 0:
			return fmt.Errorf("dag: node %q unreachable (no incoming edges; connect it to START)", id)
		case out == 0:
			return fmt.Errorf("dag: node %q is a dead end (no outgoing edges; connect it to FINISH)", id)
		}
	}
	return nil
}

// reachCheck is the last part of Validate: every node lies on a
// START→FINISH path.
func reachCheck(ix *Index) error {
	toFinish := ix.Ancestors(FinishPos)
	for p, id := range ix.ids {
		if p != StartPos && ix.Ancestors(int32(p))[0]&(1<<StartPos) == 0 {
			return fmt.Errorf("dag: node %q not reachable from START", id)
		}
		if p != FinishPos && toFinish[p/64]&(1<<(p%64)) == 0 {
			return fmt.Errorf("dag: FINISH not reachable from node %q", id)
		}
	}
	return nil
}

// lowest returns the position of the lowest set bit, or -1.
func lowest(set []uint64) int32 {
	for w, x := range set {
		if x != 0 {
			return int32(w*64 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

// Keys returns Action.Key of every action: what a configuration history
// costs to compile for matching. The keys are cut from one backing
// string, so the set costs four allocations however long it is.
func Keys(acts []Action) []string {
	keys := make([]string, len(acts))
	ends := make([]int, len(acts))
	buf := make([]byte, 0, 32*len(acts))
	for i, a := range acts {
		buf = a.appendKey(buf)
		ends[i] = len(buf)
	}
	all := string(buf)
	start := 0
	for i, end := range ends {
		keys[i] = all[start:end]
		start = end
	}
	return keys
}

// appendKey appends Key's result to dst.
func (a Action) appendKey(dst []byte) []byte {
	dst = append(dst, a.Op...)
	if len(a.Params) == 0 {
		return dst
	}
	var stack [8]string
	names := stack[:0]
	for k := range a.Params {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		dst = append(dst, '|')
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = append(dst, a.Params[k]...)
	}
	return dst
}
