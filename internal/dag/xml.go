package dag

import (
	"fmt"
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
	for _, id := range g.order {
		if id == StartID || id == FinishID {
			continue
		}
		n := g.nodes[id]
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
	for _, from := range g.order {
		for _, to := range g.succ[from] {
			dst = append(dst, `<edge from="`...)
			dst = xmlwire.AppendEscaped(dst, from)
			dst = append(dst, `" to="`...)
			dst = xmlwire.AppendEscaped(dst, to)
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
func (g *Graph) DecodeXML(s *xmlwire.Scanner) error {
	// The counts are guesses from raw bytes (a comment full of "<node"
	// counts too), so they reserve room for at most maxWireNodes of each.
	fresh := newGraph(min(s.CountAhead("<node", "</dag>"), maxWireNodes) + 2)
	edges := make([][2]string, 0, min(s.CountAhead("<edge", "</dag>"), maxWireNodes))
	nodes := 0
	err := s.Children(dagChildren, 1<<0|1<<1, func(i int) error {
		if i == 1 {
			edges = append(edges, [2]string{})
			e := &edges[len(edges)-1]
			return s.Leaf(edgeAttrs, &e[0], &e[1])
		}
		if nodes++; nodes > maxWireNodes {
			return errTooManyNodes
		}
		n := new(Node)
		var target string
		if err := s.StringAttrs(nodeAttrs, &n.ID, &n.Action.Op, &target); err != nil {
			return err
		}
		err := s.Children(nodeChildren, 1<<0, func(i int) error {
			if i == 0 {
				return scanParam(s, &n.Action.Params)
			}
			return scanOnError(s, n)
		})
		if err != nil {
			return err
		}
		if n.Action.Target, err = ParseTarget(target); err != nil {
			return fmt.Errorf("dag: node %q: %w", n.ID, err)
		}
		return fresh.AddNode(n)
	})
	if err != nil {
		return err
	}
	for _, e := range edges {
		if err := fresh.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	g.nodes, g.order, g.succ, g.pred = fresh.nodes, fresh.order, fresh.succ, fresh.pred
	g.idx.Store(fresh.idx.Load()) // what Validate just derived, for the plan that follows
	return nil
}

// scanOnError reads a node's <onerror> into its error policy.
func scanOnError(s *xmlwire.Scanner, n *Node) error {
	pol := &n.OnError
	err := s.Attrs(onErrorAttrs, func(i int, v []byte) (err error) {
		if i == 0 {
			pol.Retries, err = xmlwire.Int(v)
		} else {
			pol.Continue, err = xmlwire.Bool(v)
		}
		return err
	})
	if err != nil {
		return err
	}
	return s.Children(onErrorChildren, 1<<0, func(int) error {
		var h Action
		var target string
		if err := s.StringAttrs(handlerAttrs, &h.Op, &target); err != nil {
			return err
		}
		err := s.Children(handlerChildren, 1<<0, func(int) error { return scanParam(s, &h.Params) })
		if err != nil {
			return err
		}
		if h.Target, err = ParseTarget(target); err != nil {
			return fmt.Errorf("dag: node %q handler: %w", n.ID, err)
		}
		pol.Handler = append(pol.Handler, h)
		return nil
	})
}

// scanParam reads a <param> into *ps, which the first one makes.
func scanParam(s *xmlwire.Scanner, ps *map[string]string) error {
	var name, value string
	if err := s.Leaf(paramAttrs, &name, &value); err != nil {
		return err
	}
	if *ps == nil {
		*ps = make(map[string]string)
	}
	(*ps)[name] = value
	return nil
}

// Encode writes the graph's wire form and a newline.
func (g *Graph) Encode(w io.Writer) error {
	_, err := w.Write(append(g.AppendXML(nil), '\n'))
	return err
}

// DOT renders the graph in Graphviz dot syntax, for documentation and
// debugging; action nodes are boxes labeled with their operation,
// START/FINISH are circles. Graphviz line breaks are a literal
// backslash-n inside the quoted label, so quoting is built by hand.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph config {\n  rankdir=LR;\n")
	fmt.Fprintf(&b, "  %q [shape=circle];\n  %q [shape=doublecircle];\n", StartID, FinishID)
	for _, id := range g.ActionIDs() {
		n := g.nodes[id]
		label := dotEscape(id) + `\n` + dotEscape(n.Action.Op)
		if name := n.Action.Param("name"); name != "" {
			label += " " + dotEscape(name)
		}
		fmt.Fprintf(&b, "  \"%s\" [shape=box, label=\"%s\"];\n", dotEscape(id), label)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %q -> %q;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}

// dotEscape neutralizes characters that would break a dot string.
func dotEscape(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, `"`, `'`)
}

// Decode reads a standalone <dag> document: what Encode writes, or the
// same schema written by hand.
func Decode(r io.Reader) (*Graph, error) {
	doc, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s, g := xmlwire.NewScanner(doc), new(Graph)
	if err := s.Open("dag"); err != nil {
		return nil, err
	}
	if err := g.DecodeXML(s); err != nil {
		return nil, err
	}
	return g, s.End()
}
