package dag

import (
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"strconv"
	"strings"

	"vmplants/internal/xmlwire"
)

// The XML wire format for configuration DAGs, carried inside VM creation
// requests (paper §3.1: "Configuration DAGs are generated by clients and
// are sent as part of XML-based VM creation service requests").
//
//	<dag>
//	  <node id="A" action="install-os" target="guest">
//	    <param name="distro" value="redhat-8.0"/>
//	    <onerror retries="1" continue="true">
//	      <handler action="run-script" target="guest">
//	        <param name="script" value="cleanup.sh"/>
//	      </handler>
//	    </onerror>
//	  </node>
//	  <edge from="START" to="A"/>
//	  <edge from="A" to="FINISH"/>
//	</dag>
//
// AppendXML writes it and DecodeXML reads it; the encoding/xml oracle
// in xmlwire_test.go holds the two to encoding/xml's reading of the
// same format, byte for byte and value for value.

// maxWireNodes bounds the action nodes of a graph read from the wire.
// The index holds one ancestor bitset per node, n²/8 bytes in all: 2 MB
// at the limit, against the gigabyte a 4 MB message of bare nodes
// could otherwise ask for. The paper's graphs have around ten.
const maxWireNodes = 4096

// errTooManyNodes refuses a graph of more than maxWireNodes nodes.
var errTooManyNodes = fmt.Errorf("dag: nodes exceed the limit of %d", maxWireNodes)

// AppendXML appends the graph's wire form to dst. It is what the
// protocol codec (internal/proto) and Encode call.
func (g *Graph) AppendXML(dst []byte) []byte {
	dst = append(dst, "<dag>"...)
	for i := 2; i < len(g.nodes); i++ {
		n := &g.nodes[i]
		dst = append(dst, `<node id="`...)
		dst = xmlwire.AppendEscaped(dst, n.ID)
		dst = append(dst, '"')
		dst = appendAction(dst, n.Action)
		if pol := n.OnError; pol.Retries != 0 || pol.Continue || len(pol.Handler) > 0 {
			dst = append(dst, `<onerror retries="`...)
			dst = strconv.AppendInt(dst, int64(pol.Retries), 10)
			dst = append(dst, `" continue="`...)
			dst = strconv.AppendBool(dst, pol.Continue)
			dst = append(dst, `">`...)
			for _, h := range pol.Handler {
				dst = append(dst, "<handler"...)
				dst = appendAction(dst, h)
				dst = append(dst, "</handler>"...)
			}
			dst = append(dst, "</onerror>"...)
		}
		dst = append(dst, "</node>"...)
	}
	for p := range int32(len(g.nodes)) {
		for e := g.first(p, firstOut); e != 0; e = g.word(e, nextOut) {
			dst = append(dst, `<edge from="`...)
			dst = xmlwire.AppendEscaped(dst, g.nodes[p].ID)
			dst = append(dst, `" to="`...)
			dst = xmlwire.AppendEscaped(dst, g.nodes[g.word(e, head)].ID)
			dst = append(dst, `"></edge>`...)
		}
	}
	return append(dst, "</dag>"...)
}

// appendAction appends what a <node> and a <handler> share: the action
// and target attributes, the end of the start tag, and the parameters
// in name order.
func appendAction(dst []byte, a Action) []byte {
	dst = append(dst, ` action="`...)
	dst = xmlwire.AppendEscaped(dst, a.Op)
	dst = append(dst, `" target="`...)
	dst = append(dst, a.Target.String()...)
	dst = append(dst, `">`...)
	var few [8]string
	keys := few[:0]
	for k := range a.Params {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = append(dst, `<param name="`...)
		dst = xmlwire.AppendEscaped(dst, k)
		dst = append(dst, `" value="`...)
		dst = xmlwire.AppendEscaped(dst, a.Params[k])
		dst = append(dst, `"></param>`...)
	}
	return dst
}

var (
	dagChildren     = []string{"node", "edge"}
	nodeAttrs       = []string{"id", "action", "target"}
	nodeChildren    = []string{"param", "onerror"}
	paramAttrs      = []string{"name", "value"}
	onErrorAttrs    = []string{"retries", "continue"}
	onErrorChildren = []string{"handler"}
	handlerAttrs    = []string{"action", "target"}
	handlerChildren = []string{"param"}
	edgeAttrs       = []string{"from", "to"}
)

// DecodeXML reads the wire form from a scanner that has just read the
// <dag> start tag, validates the graph and replaces g with it. It reads
// the subset of XML the scanner accepts, and refuses the document at
// its node maxWireNodes+1.
//
// It works in two phases, so that the graph's values are not an
// allocation each. The walk copies each value it keeps into one scratch
// buffer, records where it lies and keeps an ID table of the nodes. The
// build cuts every ID, operation and parameter from one string of that
// buffer into one []Node, and hands the graph that array, the walk's ID
// table and the edges chained in one array. Each parameter set is one
// map made at its size.
//
// The lists start in arrays on this stack frame, which escape analysis
// keeps there only while no *decoder method stores a value derived from
// d's own slices back into d: one that does leaks all of *d and moves
// the eight arrays to the heap, as the ID table's growth once did (eight
// allocations and 3.5 KB a decode). So the walk's steps are closures;
// `go build -gcflags=-m ./internal/dag` prints no "moved to heap" here.
func (g *Graph) DecodeXML(s *xmlwire.Scanner) error {
	// Each list starts in an array here, so that a graph of the paper's
	// size is read without allocating.
	var (
		buf      [512]byte
		nodes    [12]nodeRec
		handlers [2]actionRec
		params   [16][2]span
		hparams  [4][2]span
		edges    [16][2]edgeEnd
		ids      [32]int32
		scratch  [64]int32
	)
	d := decoder{buf: buf[:0], nodes: nodes[:0], handlers: handlers[:0], params: params[:0],
		hparams: hparams[:0], edges: edges[:0], ids: ids[:], scratch: scratch[:]}

	keep := func(v []byte) span {
		lo := len(d.buf)
		d.buf = append(d.buf, v...)
		return span{lo, len(d.buf)}
	}
	param := func(handler bool) error {
		var p [2]span
		err := s.Attrs(paramAttrs, func(i int, v []byte) error {
			p[i] = keep(v)
			return nil
		})
		if err != nil {
			return err
		}
		if handler {
			d.hparams = append(d.hparams, p)
		} else {
			d.params = append(d.params, p)
		}
		return s.Skip()
	}
	onError := func(n *nodeRec) error {
		err := s.Attrs(onErrorAttrs, func(i int, v []byte) (err error) {
			if i == 0 {
				n.retries, err = xmlwire.Int(v)
			} else {
				n.cont, err = xmlwire.Bool(v)
			}
			return err
		})
		if err != nil {
			return err
		}
		n.h0 = len(d.handlers)
		err = s.Children(onErrorChildren, 1<<0, func(int) error {
			h := actionRec{p0: len(d.hparams)}
			var terr error
			err := s.Attrs(handlerAttrs, func(i int, v []byte) error {
				if i == 0 {
					h.op = keep(v)
				} else {
					h.target, terr = parseTarget(v)
				}
				return nil
			})
			if err == nil {
				err = s.Children(handlerChildren, 1<<0, func(int) error { return param(true) })
			}
			if err == nil && terr != nil {
				err = fmt.Errorf("dag: node %q handler: %w", string(d.buf[n.id.lo:n.id.hi]), terr)
			}
			if err != nil {
				return err
			}
			h.p1 = len(d.hparams)
			d.handlers = append(d.handlers, h)
			return nil
		})
		n.h1 = len(d.handlers)
		return err
	}
	// node checks what AddNode checks, in the order the old per-value
	// decoder met them.
	node := func() error {
		if len(d.nodes) == maxWireNodes {
			return errTooManyNodes
		}
		n := nodeRec{act: actionRec{p0: len(d.params)}}
		var terr error
		err := s.Attrs(nodeAttrs, func(i int, v []byte) error {
			switch i {
			case 0:
				n.id = keep(v)
			case 1:
				n.act.op = keep(v)
			default:
				n.act.target, terr = parseTarget(v)
			}
			return nil
		})
		if err == nil {
			err = s.Children(nodeChildren, 1<<0, func(i int) error {
				if i == 0 {
					return param(false)
				}
				return onError(&n)
			})
		}
		if err != nil {
			return err
		}
		id := d.buf[n.id.lo:n.id.hi]
		if terr != nil {
			return fmt.Errorf("dag: node %q: %w", string(id), terr)
		}
		// A marker's position says the ID is reserved, a later one that
		// it is taken.
		if p := d.lookup(id); p >= 0 || len(id) == 0 {
			return idError(string(id), p > FinishPos)
		}
		n.act.p1 = len(d.params)
		d.nodes = append(d.nodes, n)
		// Grown here, where d is a local, not in a method (see above).
		d.ids = d.ids.add(int32(len(d.nodes)+1), len(d.nodes), func(p int32) uint64 { return maphash.Bytes(idSeed, d.id(p)) })
		return nil
	}
	// edge keeps an end that names a node already read as its position,
	// so that the graph reuses that node's ID; only an end naming a node
	// not read yet is copied.
	edge := func() error {
		e := [2]edgeEnd{{pos: -1}, {pos: -1}}
		err := s.Attrs(edgeAttrs, func(i int, v []byte) error {
			if e[i].pos = d.lookup(v); e[i].pos < 0 {
				e[i].name = keep(v)
			}
			return nil
		})
		if err != nil {
			return err
		}
		d.edges = append(d.edges, e)
		return s.Skip()
	}

	err := s.Children(dagChildren, 1<<0|1<<1, func(i int) error {
		if i == 1 {
			return edge()
		}
		return node()
	})
	if err != nil {
		return err
	}
	return d.build(g)
}

// span is where one decoded value lies in the decoder's buffer.
type span struct{ lo, hi int }

func (sp span) in(str string) string { return str[sp.lo:sp.hi] }

// actionRec is an Action as the walk records it, its parameters being
// params[p0:p1] of the list it was read into.
type actionRec struct {
	op     span
	target Target
	p0, p1 int
}

// nodeRec is a Node as the walk records it, its handlers being
// handlers[h0:h1].
type nodeRec struct {
	id      span
	act     actionRec
	retries int
	cont    bool
	h0, h1  int
}

// edgeEnd is the position of the node an edge names, or -1 and the
// name as written when the walk had not read that node yet.
type edgeEnd struct {
	pos  int
	name span
}

// decoder holds what DecodeXML's walk records.
type decoder struct {
	buf      []byte
	nodes    []nodeRec   // the nodes at position 2 onwards
	handlers []actionRec // all nodes' handlers, in order
	params   [][2]span   // all nodes' parameters, name and value
	hparams  [][2]span   // all handlers' parameters
	edges    [][2]edgeEnd
	ids      idTable // the positions of the nodes read, hashed by ID
	scratch  []int32 // room for build's marks
}

// id is the ID of the node at position p >= 2.
func (d *decoder) id(p int32) []byte {
	sp := d.nodes[p-2].id
	return d.buf[sp.lo:sp.hi]
}

// lookup returns the position of the node the walk has read with the
// given ID, the markers included, or -1.
func (d *decoder) lookup(id []byte) int {
	switch string(id) {
	case StartID:
		return StartPos
	case FinishID:
		return FinishPos
	}
	return int(d.ids.find(maphash.Bytes(idSeed, id), func(p int32) bool { return string(d.id(p)) == string(id) }))
}

// build makes the graph the walk recorded, checks its edges as AddEdge
// would one by one, validates it and replaces g with it.
func (d *decoder) build(g *Graph) error {
	str := string(d.buf)
	n := len(d.nodes) + 2
	nodes := make([]Node, n)
	copy(nodes, markers[:])
	var handlers []Action
	if len(d.handlers) > 0 {
		handlers = make([]Action, len(d.handlers))
		for i, h := range d.handlers {
			handlers[i] = h.action(str, d.hparams)
		}
	}
	for p := FinishPos + 1; p < n; p++ {
		nd, r := &nodes[p], &d.nodes[p-2]
		nd.ID, nd.Action = r.id.in(str), r.act.action(str, d.params)
		nd.OnError = ErrorPolicy{Retries: r.retries, Continue: r.cont}
		if r.h1 > r.h0 {
			nd.OnError.Handler = handlers[r.h0:r.h1:r.h1]
		}
	}

	// The first edge AddEdge would refuse for a reason other than a
	// duplicate, and the first duplicate before it.
	edges, bad := d.edges, error(nil)
	for i := range edges {
		e := &edges[i]
		for end, dir := range [2]string{"from", "to"} {
			if e[end].pos < 0 {
				e[end].pos = d.lookup(d.buf[e[end].name.lo:e[end].name.hi])
			}
			if e[end].pos < 0 && bad == nil {
				bad = errUnknownEnd(dir, e[end].name.in(str))
			}
		}
		if bad == nil && e[0].pos == e[1].pos {
			bad = errSelfEdge(nodes[e[0].pos].ID)
		}
		if bad != nil {
			edges = edges[:i]
			break
		}
	}

	// The graph takes the walk's ID table: both hash an ID's bytes alike.
	slots, links, heads := carve(len(d.ids), edgeWords*len(edges), chainWords*n)
	copy(slots, d.ids)
	fresh := Graph{nodes: nodes, slots: slots, edges: links[:0], heads: heads}
	for _, e := range edges {
		fresh.link(int32(e[0].pos), int32(e[1].pos))
	}
	// Repeats: one mark per head while each tail's chain is walked.
	mark := d.scratch
	if n > len(mark) {
		mark = make([]int32, n)
	}
	mark = mark[:n]
	clear(mark)
	dup := len(edges)
	for u := range int32(n) {
		for e := fresh.first(u, firstOut); e != 0; e = fresh.word(e, nextOut) {
			if to := fresh.word(e, head); mark[to] == u+1 {
				dup = min(dup, int(e-1))
			} else {
				mark[to] = u + 1
			}
		}
	}
	if dup < len(edges) {
		return errDuplicateEdge(nodes[edges[dup][0].pos].ID, nodes[edges[dup][1].pos].ID)
	}
	if bad != nil {
		return bad
	}

	ix := fresh.buildIndex()
	if ix.valid != nil {
		return ix.valid
	}
	g.nodes, g.slots, g.edges, g.heads = nodes, slots, fresh.edges, heads
	g.idx.Store(ix) // what Validate derived, for the plan that follows
	return nil
}

// action makes the Action r records, its parameters read from ps.
func (r actionRec) action(str string, ps [][2]span) Action {
	a := Action{Op: r.op.in(str), Target: r.target}
	if r.p1 > r.p0 {
		a.Params = make(map[string]string, r.p1-r.p0)
		for _, p := range ps[r.p0:r.p1] {
			a.Params[p[0].in(str)] = p[1].in(str)
		}
	}
	return a
}

// parseTarget is ParseTarget on bytes, without a copy for what the
// wire carries: an ASCII "guest", "host" or nothing, in any case.
func parseTarget(b []byte) (Target, error) {
	var low [5]byte
	if len(b) <= len(low) {
		for i, c := range b {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			low[i] = c
		}
		switch string(low[:len(b)]) {
		case "guest", "":
			return Guest, nil
		case "host":
			return Host, nil
		}
	}
	return ParseTarget(string(b))
}

// Encode writes the graph's wire form and a newline.
func (g *Graph) Encode(w io.Writer) error {
	_, err := w.Write(append(g.AppendXML(nil), '\n'))
	return err
}

// DOT renders the graph in Graphviz dot syntax, for documentation and
// debugging; action nodes are boxes labeled with their operation,
// START/FINISH are circles. Graphviz line breaks are a literal
// backslash-n inside the quoted label, so quoting is built by hand, and
// every node name, declared or on an edge, is quoted by dotEscape.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph config {\n  rankdir=LR;\n")
	fmt.Fprintf(&b, "  \"%s\" [shape=circle];\n  \"%s\" [shape=doublecircle];\n", StartID, FinishID)
	for _, id := range g.ActionIDs() {
		n, _ := g.Node(id)
		label := dotEscape(n.ID) + `\n` + dotEscape(n.Action.Op)
		if name := n.Action.Param("name"); name != "" {
			label += " " + dotEscape(name)
		}
		fmt.Fprintf(&b, "  \"%s\" [shape=box, label=\"%s\"];\n", dotEscape(n.ID), label)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  \"%s\" -> \"%s\";\n", dotEscape(e[0]), dotEscape(e[1]))
	}
	b.WriteString("}\n")
	return b.String()
}

// dotEscape backslash-escapes the characters that would end or bend a
// dot string, so distinct names stay distinct nodes.
func dotEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Decode reads a standalone <dag> document: what Encode writes, or the
// same schema written by hand.
func Decode(r io.Reader) (*Graph, error) {
	doc, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s, g := xmlwire.NewScanner(doc), new(Graph)
	defer s.Release()
	if err := s.Open("dag"); err != nil {
		return nil, err
	}
	if err := g.DecodeXML(s); err != nil {
		return nil, err
	}
	return g, s.End()
}
