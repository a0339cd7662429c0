package proto

import (
	"bytes"
	"fmt"
	"strconv"

	"vmplants/internal/classad"
	"vmplants/internal/dag"
	"vmplants/internal/xmlwire"
)

// The codec: one append-style encoder and one scanner-driven decoder
// per message body, written against the struct tags in proto.go, which
// remain the format's definition (codec_test.go holds the two to
// encoding/xml's reading of those tags, byte for byte and value for
// value). Elements are written in field order, an "a>b" tag nests b in
// a shared <a>, omitempty fields and nil pointers are left out, and an
// element is never self-closed.

// appendMessage appends the envelope and its one body; m has passed
// validateEnvelope.
func appendMessage(dst []byte, m *Message) []byte {
	dst = append(dst, `<message kind="`...)
	dst = xmlwire.AppendEscaped(dst, string(m.Kind))
	dst = append(dst, `" seq="`...)
	dst = strconv.AppendUint(dst, m.Seq, 10)
	if m.TraceID != 0 {
		dst = append(dst, `" trace="`...)
		dst = strconv.AppendUint(dst, m.TraceID, 10)
	}
	if m.ParentSpan != 0 {
		dst = append(dst, `" span="`...)
		dst = strconv.AppendUint(dst, m.ParentSpan, 10)
	}
	dst = append(dst, `">`...)
	dst = appendOpen(dst, string(m.Kind))
	switch m.Kind {
	case KindCreateRequest:
		dst = appendCreateFields(dst, m.Create)
	case KindCreateResponse:
		dst = appendText(dst, "vmid", m.Created.VMID)
		dst = appendAd(dst, m.Created.Ad)
	case KindQueryRequest:
		dst = appendText(dst, "vmid", m.Query.VMID)
	case KindQueryResponse:
		dst = appendText(dst, "vmid", m.Queried.VMID)
		dst = appendBool(dst, "found", m.Queried.Found)
		dst = appendAd(dst, m.Queried.Ad)
	case KindDestroyRequest:
		dst = appendText(dst, "vmid", m.Destroy.VMID)
	case KindDestroyResponse:
		dst = appendText(dst, "vmid", m.Destroyed.VMID)
		dst = appendBool(dst, "destroyed", m.Destroyed.Destroyed)
	case KindEstimateRequest:
		if m.Estimate.Create != nil {
			dst = appendCreateRequest(dst, "create-request", m.Estimate.Create)
		}
	case KindEstimateResponse:
		dst = appendText(dst, "plant", m.Bid.Plant)
		dst = appendOpen(dst, "cost")
		dst = strconv.AppendFloat(dst, m.Bid.Cost, 'g', -1, 64)
		dst = appendClose(dst, "cost")
		dst = appendAd(dst, m.Bid.Ad)
	case KindForwardCreateRequest:
		dst = appendText(dst, "origin", m.ForwardCreate.Origin)
		if m.ForwardCreate.Create != nil {
			dst = appendCreateRequest(dst, "create-request", m.ForwardCreate.Create)
		}
		if m.ForwardCreate.Probe {
			dst = appendBool(dst, "probe", true)
		}
		dst = appendOptional(dst, "token", m.ForwardCreate.Token)
	case KindForwardCreateResponse:
		dst = appendText(dst, "vmid", m.ForwardCreated.VMID)
		dst = appendAd(dst, m.ForwardCreated.Ad)
		if m.ForwardCreated.Found {
			dst = appendBool(dst, "found", true)
		}
	case KindPublishRequest:
		dst = appendText(dst, "vmid", m.Publish.VMID)
		dst = appendText(dst, "image", m.Publish.Image)
	case KindPublishResponse:
		dst = appendText(dst, "vmid", m.Published.VMID)
		dst = appendText(dst, "image", m.Published.Image)
	case KindLifecycleRequest:
		dst = appendText(dst, "vmid", m.Lifecycle.VMID)
		dst = appendText(dst, "op", m.Lifecycle.Op)
	case KindLifecycleResponse:
		dst = appendText(dst, "vmid", m.Lifecycled.VMID)
		dst = appendText(dst, "state", m.Lifecycled.State)
	case KindPingRequest:
	case KindPingResponse:
		dst = appendText(dst, "service", m.Pong.Service)
	case KindError:
		dst = appendText(dst, "code", m.Err.Code)
		dst = appendText(dst, "detail", m.Err.Detail)
	}
	dst = appendClose(dst, string(m.Kind))
	return append(dst, "</message>"...)
}

func appendOpen(dst []byte, name string) []byte {
	dst = append(dst, '<')
	dst = append(dst, name...)
	return append(dst, '>')
}

func appendClose(dst []byte, name string) []byte {
	dst = append(dst, '<', '/')
	dst = append(dst, name...)
	return append(dst, '>')
}

func appendText(dst []byte, name, text string) []byte {
	dst = appendOpen(dst, name)
	dst = xmlwire.AppendEscaped(dst, text)
	return appendClose(dst, name)
}

// appendOptional is appendText for an omitempty field.
func appendOptional(dst []byte, name, text string) []byte {
	if text == "" {
		return dst
	}
	return appendText(dst, name, text)
}

func appendBool(dst []byte, name string, v bool) []byte {
	dst = appendOpen(dst, name)
	dst = strconv.AppendBool(dst, v)
	return appendClose(dst, name)
}

func appendInt(dst []byte, name string, v int) []byte {
	dst = appendOpen(dst, name)
	dst = strconv.AppendInt(dst, int64(v), 10)
	return appendClose(dst, name)
}

func appendAd(dst []byte, ad *classad.Ad) []byte {
	if ad == nil {
		return dst
	}
	return ad.AppendXML(dst)
}

func appendCreateRequest(dst []byte, name string, r *CreateRequest) []byte {
	dst = appendOpen(dst, name)
	dst = appendCreateFields(dst, r)
	return appendClose(dst, name)
}

func appendCreateFields(dst []byte, r *CreateRequest) []byte {
	dst = appendOptional(dst, "vmid", r.VMID)
	dst = appendOptional(dst, "request-id", r.RequestID)
	dst = appendText(dst, "name", r.Name)
	dst = append(dst, "<hardware>"...)
	dst = appendText(dst, "arch", r.Arch)
	dst = appendInt(dst, "memoryMB", r.MemoryMB)
	dst = appendInt(dst, "diskMB", r.DiskMB)
	dst = append(dst, "</hardware><network>"...)
	dst = appendText(dst, "domain", r.Domain)
	dst = appendOptional(dst, "proxy", r.ProxyAddr)
	dst = appendOptional(dst, "token", r.Token)
	dst = append(dst, "</network>"...)
	dst = appendOptional(dst, "origin", r.Origin)
	dst = appendOptional(dst, "backend", r.Backend)
	dst = appendOptional(dst, "requirements", r.Reqs)
	if r.Graph != nil {
		dst = r.Graph.AppendXML(dst)
	}
	return dst
}

// bareCreateRequest is the root element of a create-request marshalled
// on its own: the name encoding/xml gives a struct without an XMLName.
const bareCreateRequest = "CreateRequest"

// MarshalCreateRequest renders a create-request as a document of its
// own — the form the shop journals in a creation intent. It renders
// into a pooled buffer, so the string is its one allocation.
func MarshalCreateRequest(r *CreateRequest) string {
	bp := frameBufs.Get().(*[]byte)
	buf := appendCreateRequest((*bp)[:0], bareCreateRequest, r)
	defer recycle(bp, buf)
	return string(buf)
}

// UnmarshalCreateRequest parses what MarshalCreateRequest wrote.
func UnmarshalCreateRequest(doc []byte) (*CreateRequest, error) {
	s := reader{Scanner: xmlwire.NewScanner(doc)}
	defer s.Release()
	r := new(CreateRequest)
	err := s.Open(bareCreateRequest)
	if err == nil {
		err = scanCreateRequest(s, r)
	}
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return nil, fmt.Errorf("proto: %w", err)
	}
	return r, nil
}

// The decoder's name tables: the index a Children or Attrs callback
// receives is the position in the table. bodyNames lists the kinds in
// the order of Message's body fields.
var (
	envelopeAttrs = []string{"kind", "seq", "trace", "span"}
	bodyNames     = []string{
		string(KindCreateRequest), string(KindCreateResponse),
		string(KindQueryRequest), string(KindQueryResponse),
		string(KindDestroyRequest), string(KindDestroyResponse),
		string(KindEstimateRequest), string(KindEstimateResponse),
		string(KindForwardCreateRequest), string(KindForwardCreateResponse),
		string(KindPublishRequest), string(KindPublishResponse),
		string(KindLifecycleRequest), string(KindLifecycleResponse),
		string(KindPingRequest), string(KindPingResponse),
		string(KindError),
	}
)

// reader is a decode's scanner and, on a stream, its frame reader.
type reader struct {
	*xmlwire.Scanner
	fr *frameReader
}

// scanDAG reads the <dag> element s has just named, unless fr read the
// same bytes last: then the request shares that graph — the winner's
// create after its estimate, a peer's forward-create after its estimate
// — as nothing edits a graph read off the wire (TestWireGraphsAreOnlyRead).
func (fr *frameReader) scanDAG(s *xmlwire.Scanner) (*dag.Graph, error) {
	rest := s.Rest()
	if fr != nil && len(fr.dag) > 0 && bytes.HasPrefix(rest, fr.dag) {
		return fr.graph, s.Skip() // the same bytes are the same element
	}
	g := new(dag.Graph)
	err := g.DecodeXML(s)
	if err == nil && fr != nil && !fr.exact {
		fr.dag, fr.graph = append(fr.dag[:0], rest[:len(rest)-len(s.Rest())]...), g
	}
	return g, err
}

// scanMessage decodes the envelope. The first body shares the
// envelope's allocation (an Envelope of its type), and the scanner's
// unescape buffer goes back to its pool when the decode is done: every
// value decoded was copied out of it.
func scanMessage(doc []byte, fr *frameReader) (*Message, error) {
	s := reader{xmlwire.NewScanner(doc), fr}
	defer s.Release()
	if err := s.Open("message"); err != nil {
		return nil, err
	}
	var hdr Message
	err := s.Attrs(envelopeAttrs, func(i int, v []byte) (err error) {
		switch i {
		case 0:
			hdr.Kind = kindOf(v)
		case 1:
			hdr.Seq, err = xmlwire.Uint(v)
		case 2:
			hdr.TraceID, err = xmlwire.Uint(v)
		case 3:
			hdr.ParentSpan, err = xmlwire.Uint(v)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var m *Message
	err = s.Children(bodyNames, 0, func(i int) error { return scanBody(s, &hdr, &m, Kind(bodyNames[i])) })
	if m == nil {
		m = new(Message)
		*m = hdr
	}
	if err != nil {
		return m, err
	}
	return m, s.End()
}

// kindOf is the envelope's kind as the bodyNames entry it names; only
// a kind no body has is copied.
func kindOf(v []byte) Kind {
	for _, k := range bodyNames {
		if string(v) == k {
			return Kind(k)
		}
	}
	return Kind(v)
}

// bodyOf returns a new body of type B for *m: the first body makes *m,
// an Envelope holding hdr, in the same allocation.
func bodyOf[B any](hdr *Message, m **Message) *B {
	if *m != nil {
		return new(B)
	}
	e := &Envelope[B]{Message: *hdr}
	*m = &e.Message
	return &e.Body
}

// scanBody decodes the body element named kind into its field of *m.
func scanBody(s reader, hdr *Message, m **Message, kind Kind) error {
	switch kind {
	case KindCreateRequest:
		b := bodyOf[CreateRequest](hdr, m)
		(*m).Create = b
		return scanCreateRequest(s, b)
	case KindCreateResponse:
		b := bodyOf[CreateResponse](hdr, m)
		(*m).Created = b
		return scanFields(s, field{"vmid", &b.VMID}, field{"classad", &b.Ad})
	case KindQueryRequest:
		b := bodyOf[QueryRequest](hdr, m)
		(*m).Query = b
		return scanFields(s, field{"vmid", &b.VMID})
	case KindQueryResponse:
		b := bodyOf[QueryResponse](hdr, m)
		(*m).Queried = b
		return scanFields(s, field{"vmid", &b.VMID}, field{"found", &b.Found}, field{"classad", &b.Ad})
	case KindDestroyRequest:
		b := bodyOf[DestroyRequest](hdr, m)
		(*m).Destroy = b
		return scanFields(s, field{"vmid", &b.VMID})
	case KindDestroyResponse:
		b := bodyOf[DestroyResponse](hdr, m)
		(*m).Destroyed = b
		return scanFields(s, field{"vmid", &b.VMID}, field{"destroyed", &b.Destroyed})
	case KindEstimateRequest:
		b := bodyOf[EstimateRequest](hdr, m)
		(*m).Estimate = b
		return scanFields(s, field{"create-request", &b.Create})
	case KindEstimateResponse:
		b := bodyOf[EstimateResponse](hdr, m)
		(*m).Bid = b
		return scanFields(s, field{"plant", &b.Plant}, field{"cost", &b.Cost}, field{"classad", &b.Ad})
	case KindForwardCreateRequest:
		b := bodyOf[ForwardCreateRequest](hdr, m)
		(*m).ForwardCreate = b
		return scanFields(s, field{"origin", &b.Origin}, field{"create-request", &b.Create}, field{"probe", &b.Probe}, field{"token", &b.Token})
	case KindForwardCreateResponse:
		b := bodyOf[ForwardCreateResponse](hdr, m)
		(*m).ForwardCreated = b
		return scanFields(s, field{"vmid", &b.VMID}, field{"classad", &b.Ad}, field{"found", &b.Found})
	case KindPublishRequest:
		b := bodyOf[PublishRequest](hdr, m)
		(*m).Publish = b
		return scanFields(s, field{"vmid", &b.VMID}, field{"image", &b.Image})
	case KindPublishResponse:
		b := bodyOf[PublishResponse](hdr, m)
		(*m).Published = b
		return scanFields(s, field{"vmid", &b.VMID}, field{"image", &b.Image})
	case KindLifecycleRequest:
		b := bodyOf[LifecycleRequest](hdr, m)
		(*m).Lifecycle = b
		return scanFields(s, field{"vmid", &b.VMID}, field{"op", &b.Op})
	case KindLifecycleResponse:
		b := bodyOf[LifecycleResponse](hdr, m)
		(*m).Lifecycled = b
		return scanFields(s, field{"vmid", &b.VMID}, field{"state", &b.State})
	case KindPingRequest:
		(*m).Ping = bodyOf[PingRequest](hdr, m)
		return s.Skip()
	case KindPingResponse:
		b := bodyOf[PingResponse](hdr, m)
		(*m).Pong = b
		return scanFields(s, field{"service", &b.Service})
	case KindError:
		b := bodyOf[ErrorResponse](hdr, m)
		(*m).Err = b
		return scanFields(s, field{"code", &b.Code}, field{"detail", &b.Detail})
	}
	return s.Skip()
}

// field binds a child element's name to where its value goes; the
// pointer's type says how to read it.
type field struct {
	name string
	dst  any
}

// hardware and network stand for the "hardware>…" and "network>…"
// tags' shared parents, which hold fields of the request and no value
// of their own. Each is one pointer, so naming one as a field's dst
// allocates nothing.
type (
	hardware struct{ r *CreateRequest }
	network  struct{ r *CreateRequest }
)

// scanFields reads the current element's children into fs, each at most
// once; other children are skipped.
func scanFields(s reader, fs ...field) error {
	var names [9]string // the widest element, create-request, has nine children
	for i, f := range fs {
		names[i] = f.name
	}
	return s.Children(names[:len(fs)], 0, func(i int) error { return scanValue(s, fs[i].dst) })
}

func scanValue(s reader, dst any) (err error) {
	switch dst := dst.(type) {
	case hardware:
		return scanFields(s, field{"arch", &dst.r.Arch}, field{"memoryMB", &dst.r.MemoryMB}, field{"diskMB", &dst.r.DiskMB})
	case network:
		return scanFields(s, field{"domain", &dst.r.Domain}, field{"proxy", &dst.r.ProxyAddr}, field{"token", &dst.r.Token})
	case **classad.Ad:
		*dst = new(classad.Ad)
		return (*dst).DecodeXML(s.Scanner)
	case **dag.Graph:
		*dst, err = s.fr.scanDAG(s.Scanner)
		return err
	case **CreateRequest:
		*dst = new(CreateRequest)
		return scanCreateRequest(s, *dst)
	}
	text, err := s.Text()
	if err != nil {
		return err
	}
	switch dst := dst.(type) {
	case *string:
		*dst = string(text)
	case *int:
		*dst, err = xmlwire.Int(text)
	case *bool:
		*dst, err = xmlwire.Bool(text)
	case *float64:
		*dst, err = xmlwire.Float(text)
	default:
		panic(fmt.Sprintf("proto: no decoder for %T", dst))
	}
	return err
}

func scanCreateRequest(s reader, r *CreateRequest) error {
	return scanFields(s,
		field{"vmid", &r.VMID},
		field{"request-id", &r.RequestID},
		field{"name", &r.Name},
		field{"hardware", hardware{r}},
		field{"network", network{r}},
		field{"origin", &r.Origin},
		field{"backend", &r.Backend},
		field{"requirements", &r.Reqs},
		field{"dag", &r.Graph})
}
