package dag

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
)

// Positions of the two markers in every graph's insertion order:
// NewGraph inserts them first and nothing removes a node.
const (
	StartPos  = 0
	FinishPos = 1
)

// Index is what matching (package match) and Validate need from a
// graph's structure, derived once per graph instead of once per use.
// Nodes are numbered by their positions in the graph (see StartPos and
// FinishPos) and every set of nodes is a bitset over those numbers. An
// Index is immutable but for its ancestor sets (n²/8 bytes), derived
// once on the first call to Ancestors, so that a graph that is only
// validated or sorted does not pay for them; Graph.Index hands the same
// one to every caller until the graph is mutated.
type Index struct {
	nodes []Node  // the graph's nodes when the index was built
	keys  string  // every action key, one after another
	ends  []int32 // position p's key is keys[ends[p-1]:ends[p]], from 2 on
	first idTable // the first position carrying each action key, hashed by key
	next  []int32 // next position with the same key, 0 at the end
	off   []int32 // position p's successors are adj[off[p]:off[p+1]], in insertion order
	adj   []int32
	words int     // uint64 words per bitset
	topo  []int32 // positions in TopoSort order; nil when cyclic
	cycle error   // why topo is nil
	valid error   // Validate's verdict

	ancOnce sync.Once
	anc     []uint64 // words per position: the nodes it is reachable from, itself excluded
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
func (ix *Index) Len() int { return len(ix.nodes) }

// Words is the length of a bitset over the positions.
func (ix *Index) Words() int { return ix.words }

// ID names the node at position p.
func (ix *Index) ID(p int32) string { return ix.nodes[p].ID }

// key is the action key of the node at position p >= 2.
func (ix *Index) key(p int32) string { return ix.keys[ix.ends[p-1]:ix.ends[p]] }

// First returns the first position, in insertion order, whose action
// has the given key, or -1.
func (ix *Index) First(key string) int32 {
	return ix.first.find(maphash.String(idSeed, key), func(p int32) bool { return ix.key(p) == key })
}

// Next returns the next position after p with the same action key, or
// -1.
func (ix *Index) Next(p int32) int32 {
	if q := ix.next[p]; q != 0 {
		return q
	}
	return -1
}

// Ancestors is the bitset of positions from which p is reachable, p
// itself excluded. START is in it for every node of a valid graph. The
// slice is shared; callers must not write to it.
func (ix *Index) Ancestors(p int32) []uint64 {
	ix.ancOnce.Do(ix.buildAncestors)
	return ix.anc[int(p)*ix.words : (int(p)+1)*ix.words]
}

// Topo lists every position in TopoSort order, or is nil when the graph
// is cyclic. Shared; callers must not write to it.
func (ix *Index) Topo() []int32 { return ix.topo }

// succ lists p's successors.
func (ix *Index) succ(p int32) []int32 { return ix.adj[ix.off[p]:ix.off[p+1]] }

func (g *Graph) buildIndex() *Index {
	n, m, t := len(g.nodes), len(g.edges)/edgeWords, tableSize(len(g.nodes)-2)
	// Every int32 the index keeps, and Kahn's in-degrees and ready set,
	// in one array.
	ints := make([]int32, 5*n+1+m+t+(n+31)/32)
	cut := func(k int) []int32 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	ix := &Index{
		nodes: g.nodes[:n:n], // AddNode only appends, so this prefix never changes
		ends:  cut(n),
		first: cut(t),
		next:  cut(n),
		off:   cut(n + 1),
		adj:   cut(m),
		words: (n + 63) / 64,
	}
	topo, indeg, ready := cut(n)[:0], cut(n), cut((n+31)/32)

	// Per action key, the chain of positions carrying it in insertion
	// order (built back to front, so no chain is ever walked).
	var stack [512]byte
	buf := stack[:0]
	for p := 2; p < n; p++ {
		buf = g.nodes[p].Action.appendKey(buf)
		ix.ends[p] = int32(len(buf))
	}
	ix.keys = string(buf)
	for p := int32(n) - 1; p > FinishPos; p-- {
		key := ix.key(p)
		i := ix.first.slot(maphash.String(idSeed, key), func(q int32) bool { return ix.key(q) == key })
		ix.next[p], ix.first[i] = ix.first[i], p
	}

	// The successor lists, read off the graph's out chains.
	for p := range int32(n) {
		k := ix.off[p]
		for e := g.first(p, firstOut); e != 0; e = g.word(e, nextOut) {
			ix.adj[k] = g.word(e, head)
			indeg[ix.adj[k]]++
			k++
		}
		ix.off[p+1] = k
	}
	ix.valid = g.degreeCheck()

	// Kahn's algorithm, always taking the ready node earliest in
	// insertion order: the lowest set bit of ready, 32 positions a word.
	for p := range int32(n) {
		if indeg[p] == 0 {
			ready[p/32] |= 1 << (p % 32)
		}
	}
	for low := 0; ; { // no word of ready below low has a bit set
		for low < len(ready) && ready[low] == 0 {
			low++
		}
		if low == len(ready) {
			break
		}
		p := int32(low*32 + bits.TrailingZeros32(uint32(ready[low])))
		ready[low] &^= 1 << (p % 32)
		topo = append(topo, p)
		for _, to := range ix.succ(p) {
			if indeg[to]--; indeg[to] == 0 {
				ready[to/32] |= 1 << (to % 32)
				low = min(low, int(to/32))
			}
		}
	}
	if len(topo) == n {
		ix.topo = topo
	} else {
		ix.cycle = errors.New("dag: cycle detected")
		for p := range indeg {
			if indeg[p] > 0 {
				ix.cycle = fmt.Errorf("dag: cycle involving node %q", g.nodes[p].ID)
				break
			}
		}
		if ix.valid == nil {
			ix.valid = ix.cycle
		}
	}
	// The last part of Validate: every node lies on a START→FINISH path.
	// Past the rest only a graph without actions can fail it: in a DAG
	// whose only source is START and only sink FINISH, a walk back from
	// any node ends at START and a walk on at FINISH.
	if ix.valid == nil && n == 2 && m == 0 {
		ix.valid = errors.New(`dag: FINISH not reachable from node "START"`)
	}
	return ix
}

// buildAncestors pushes each node's set, plus the node, along its out
// edges. In topological order one pass completes them; a cyclic graph
// (which only match.Evaluate's direct callers can present) repeats the
// pass over insertion order until nothing changes.
func (ix *Index) buildAncestors() {
	n := len(ix.nodes)
	ix.anc = make([]uint64, n*ix.words)
	at := func(p int32) []uint64 { return ix.anc[int(p)*ix.words : (int(p)+1)*ix.words] }
	for changed := true; changed; {
		changed = false
		for i := range int32(n) {
			p := i
			if ix.topo != nil {
				p = ix.topo[i]
			}
			from := at(p)
			for _, to := range ix.succ(p) {
				into := at(to)
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
}

// degreeCheck is the first part of Validate: START is the only source
// and FINISH the only sink.
func (g *Graph) degreeCheck() error {
	for p := range int32(len(g.nodes)) {
		in, out := g.first(p, firstIn) != 0, g.first(p, firstOut) != 0
		switch {
		case p == StartPos:
			if in {
				return errors.New("dag: START has incoming edges")
			}
		case p == FinishPos:
			if out {
				return errors.New("dag: FINISH has outgoing edges")
			}
		case !in:
			return fmt.Errorf("dag: node %q unreachable (no incoming edges; connect it to START)", g.nodes[p].ID)
		case !out:
			return fmt.Errorf("dag: node %q is a dead end (no outgoing edges; connect it to FINISH)", g.nodes[p].ID)
		}
	}
	return nil
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
