package proto

import (
	"encoding/xml"
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
	case KindBatchCreateRequest:
		dst = append(dst, "<items>"...)
		for i := range m.BatchCreate.Items {
			dst = appendCreateRequest(dst, "create-request", &m.BatchCreate.Items[i])
		}
		dst = append(dst, "</items>"...)
	case KindBatchCreateResponse:
		dst = append(dst, "<items>"...)
		for i := range m.BatchCreated.Items {
			it := &m.BatchCreated.Items[i]
			dst = append(dst, "<item>"...)
			dst = appendOptional(dst, "vmid", it.VMID)
			dst = appendAd(dst, it.Ad)
			dst = appendOptional(dst, "error", it.Err)
			dst = append(dst, "</item>"...)
		}
		dst = append(dst, "</items>"...)
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
	case KindListRequest, KindPingRequest:
	case KindListResponse:
		dst = appendText(dst, "plant", m.Listed.Plant)
		dst = append(dst, "<vmids>"...)
		for _, id := range m.Listed.VMIDs {
			dst = appendText(dst, "vmid", id)
		}
		dst = append(dst, "</vmids>"...)
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
// own — the form the shop journals in a creation intent.
func MarshalCreateRequest(r *CreateRequest) []byte {
	return appendCreateRequest(nil, bareCreateRequest, r)
}

// UnmarshalCreateRequest parses what MarshalCreateRequest wrote.
func UnmarshalCreateRequest(doc []byte) (*CreateRequest, error) {
	s := xmlwire.NewScanner(doc)
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
		string(KindBatchCreateRequest), string(KindBatchCreateResponse),
		string(KindQueryRequest), string(KindQueryResponse),
		string(KindDestroyRequest), string(KindDestroyResponse),
		string(KindEstimateRequest), string(KindEstimateResponse),
		string(KindForwardCreateRequest), string(KindForwardCreateResponse),
		string(KindPublishRequest), string(KindPublishResponse),
		string(KindLifecycleRequest), string(KindLifecycleResponse),
		string(KindListRequest), string(KindListResponse),
		string(KindPingRequest), string(KindPingResponse),
		string(KindError),
	}
	itemsName  = []string{"items"}
	itemName   = []string{"item"}
	createName = []string{"create-request"}
	vmidName   = []string{"vmid"}
)

// scanMessage decodes the envelope.
func scanMessage(doc []byte) (*Message, error) {
	s := xmlwire.NewScanner(doc)
	if err := s.Open("message"); err != nil {
		return nil, err
	}
	m := &Message{XMLName: xml.Name{Local: "message"}}
	err := s.Attrs(envelopeAttrs, func(i int, v []byte) (err error) {
		switch i {
		case 0:
			m.Kind = Kind(v)
		case 1:
			m.Seq, err = xmlwire.Uint(v)
		case 2:
			m.TraceID, err = xmlwire.Uint(v)
		case 3:
			m.ParentSpan, err = xmlwire.Uint(v)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := s.Children(bodyNames, 0, func(i int) error { return scanBody(s, m, Kind(bodyNames[i])) }); err != nil {
		return m, err
	}
	return m, s.End()
}

// scanBody decodes the body element named kind into its field of m.
func scanBody(s *xmlwire.Scanner, m *Message, kind Kind) error {
	switch kind {
	case KindCreateRequest:
		m.Create = new(CreateRequest)
		return scanCreateRequest(s, m.Create)
	case KindCreateResponse:
		m.Created = new(CreateResponse)
		return scanFields(s, field{"vmid", &m.Created.VMID}, field{"classad", &m.Created.Ad})
	case KindBatchCreateRequest:
		m.BatchCreate = new(BatchCreateRequest)
		return s.Children(itemsName, 0, func(int) error {
			return s.Children(createName, 1, func(int) error {
				items := &m.BatchCreate.Items
				*items = append(*items, CreateRequest{})
				return scanCreateRequest(s, &(*items)[len(*items)-1])
			})
		})
	case KindBatchCreateResponse:
		m.BatchCreated = new(BatchCreateResponse)
		return s.Children(itemsName, 0, func(int) error {
			return s.Children(itemName, 1, func(int) error {
				items := &m.BatchCreated.Items
				*items = append(*items, BatchCreateItem{})
				it := &(*items)[len(*items)-1]
				return scanFields(s, field{"vmid", &it.VMID}, field{"classad", &it.Ad}, field{"error", &it.Err})
			})
		})
	case KindQueryRequest:
		m.Query = new(QueryRequest)
		return scanFields(s, field{"vmid", &m.Query.VMID})
	case KindQueryResponse:
		m.Queried = new(QueryResponse)
		return scanFields(s, field{"vmid", &m.Queried.VMID}, field{"found", &m.Queried.Found}, field{"classad", &m.Queried.Ad})
	case KindDestroyRequest:
		m.Destroy = new(DestroyRequest)
		return scanFields(s, field{"vmid", &m.Destroy.VMID})
	case KindDestroyResponse:
		m.Destroyed = new(DestroyResponse)
		return scanFields(s, field{"vmid", &m.Destroyed.VMID}, field{"destroyed", &m.Destroyed.Destroyed})
	case KindEstimateRequest:
		m.Estimate = new(EstimateRequest)
		return scanFields(s, field{"create-request", &m.Estimate.Create})
	case KindEstimateResponse:
		m.Bid = new(EstimateResponse)
		return scanFields(s, field{"plant", &m.Bid.Plant}, field{"cost", &m.Bid.Cost}, field{"classad", &m.Bid.Ad})
	case KindForwardCreateRequest:
		f := new(ForwardCreateRequest)
		m.ForwardCreate = f
		return scanFields(s, field{"origin", &f.Origin}, field{"create-request", &f.Create}, field{"probe", &f.Probe}, field{"token", &f.Token})
	case KindForwardCreateResponse:
		f := new(ForwardCreateResponse)
		m.ForwardCreated = f
		return scanFields(s, field{"vmid", &f.VMID}, field{"classad", &f.Ad}, field{"found", &f.Found})
	case KindPublishRequest:
		m.Publish = new(PublishRequest)
		return scanFields(s, field{"vmid", &m.Publish.VMID}, field{"image", &m.Publish.Image})
	case KindPublishResponse:
		m.Published = new(PublishResponse)
		return scanFields(s, field{"vmid", &m.Published.VMID}, field{"image", &m.Published.Image})
	case KindLifecycleRequest:
		m.Lifecycle = new(LifecycleRequest)
		return scanFields(s, field{"vmid", &m.Lifecycle.VMID}, field{"op", &m.Lifecycle.Op})
	case KindLifecycleResponse:
		m.Lifecycled = new(LifecycleResponse)
		return scanFields(s, field{"vmid", &m.Lifecycled.VMID}, field{"state", &m.Lifecycled.State})
	case KindListRequest:
		m.List = new(ListRequest)
		return s.Skip()
	case KindListResponse:
		m.Listed = new(ListResponse)
		return scanFields(s, field{"plant", &m.Listed.Plant}, field{"vmids", &m.Listed.VMIDs})
	case KindPingRequest:
		m.Ping = new(PingRequest)
		return s.Skip()
	case KindPingResponse:
		m.Pong = new(PingResponse)
		return scanFields(s, field{"service", &m.Pong.Service})
	case KindError:
		m.Err = new(ErrorResponse)
		return scanFields(s, field{"code", &m.Err.Code}, field{"detail", &m.Err.Detail})
	}
	return s.Skip()
}

// field binds a child element's name to where its value goes; the
// pointer's type says how to read it.
type field struct {
	name string
	dst  any
}

// group is the value of an "a>b" tag's shared parent <a>: the fields
// nested in it.
type group []field

// scanFields reads the current element's children into fs, each at most
// once; other children are skipped.
func scanFields(s *xmlwire.Scanner, fs ...field) error {
	var names [9]string // the widest element, create-request, has nine children
	for i, f := range fs {
		names[i] = f.name
	}
	return s.Children(names[:len(fs)], 0, func(i int) error { return scanValue(s, fs[i].dst) })
}

func scanValue(s *xmlwire.Scanner, dst any) (err error) {
	switch dst := dst.(type) {
	case group:
		return scanFields(s, dst...)
	case **classad.Ad:
		*dst = new(classad.Ad)
		return (*dst).DecodeXML(s)
	case **dag.Graph:
		*dst = new(dag.Graph)
		return (*dst).DecodeXML(s)
	case **CreateRequest:
		*dst = new(CreateRequest)
		return scanCreateRequest(s, *dst)
	case *[]string: // vmids>vmid
		return s.Children(vmidName, 1, func(int) error {
			text, err := s.Text()
			*dst = append(*dst, string(text))
			return err
		})
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

func scanCreateRequest(s *xmlwire.Scanner, r *CreateRequest) error {
	return scanFields(s,
		field{"vmid", &r.VMID},
		field{"request-id", &r.RequestID},
		field{"name", &r.Name},
		field{"hardware", group{{"arch", &r.Arch}, {"memoryMB", &r.MemoryMB}, {"diskMB", &r.DiskMB}}},
		field{"network", group{{"domain", &r.Domain}, {"proxy", &r.ProxyAddr}, {"token", &r.Token}}},
		field{"origin", &r.Origin},
		field{"backend", &r.Backend},
		field{"requirements", &r.Reqs},
		field{"dag", &r.Graph})
}
