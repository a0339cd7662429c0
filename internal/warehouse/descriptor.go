package warehouse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"vmplants/internal/xmlwire"
)

// Descriptor is the XML description stored beside each image (paper
// §4.1: "XML files are used to describe such cached images in terms of
// their memory sizes, operating system installed, and the configuration
// actions that have already been performed"). The root element is
// <golden-machine>. The struct tags define the format: appendDescriptor
// writes what encoding/xml's MarshalIndent(d, "", "  ") makes of them,
// held to that oracle by descriptor_test.go.
type Descriptor struct {
	Name     string        `xml:"name,attr"`
	Backend  string        `xml:"backend,attr"`
	Arch     string        `xml:"hardware>arch"`
	MemoryMB int           `xml:"hardware>memoryMB"`
	DiskMB   int           `xml:"hardware>diskMB"`
	OS       string        `xml:"os"`
	Actions  []descrAction `xml:"performed>action"`
	// Integrity records the content checksum of every other state file
	// (the descriptor cannot checksum itself), paper-style: the XML
	// descriptor is the image's manifest, so it carries the sums a
	// reader needs to verify what it is about to clone.
	Integrity []descrSum `xml:"integrity>artifact"`
}

type descrSum struct {
	Path string `xml:"path,attr"`
	Sum  string `xml:"sum,attr"`
}

type descrAction struct {
	Op     string       `xml:"op,attr"`
	Target string       `xml:"target,attr"`
	Params []descrParam `xml:"param"`
}

type descrParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Descriptor builds the XML descriptor for the image.
func (im *Image) Descriptor() Descriptor {
	d := Descriptor{
		Name:     im.Name,
		Backend:  im.Backend,
		Arch:     im.Hardware.Arch,
		MemoryMB: im.Hardware.MemoryMB,
		DiskMB:   im.Hardware.DiskMB,
		OS:       im.OS(),
	}
	for _, a := range im.Performed {
		da := descrAction{Op: a.Op, Target: a.Target.String()}
		keys := make([]string, 0, len(a.Params))
		for k := range a.Params {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			da.Params = append(da.Params, descrParam{Name: k, Value: a.Params[k]})
		}
		d.Actions = append(d.Actions, da)
	}
	own := im.descriptorPath()
	for _, p := range im.sumPaths() {
		if p == own {
			continue
		}
		d.Integrity = append(d.Integrity, descrSum{Path: p, Sum: fmt.Sprintf("%016x", im.Sums[p])})
	}
	return d
}

// appendDescriptor appends d's on-volume bytes to dst: two spaces of
// indent per level, an element without child elements on one line, and
// no newline after the root's end tag.
func appendDescriptor(dst []byte, d Descriptor) []byte {
	dst = appendPair(dst, `<golden-machine name="`, d.Name, `" backend="`, d.Backend)
	dst = append(dst, "\n  <hardware>\n    <arch>"...)
	dst = xmlwire.AppendEscaped(dst, d.Arch)
	dst = append(dst, "</arch>\n    <memoryMB>"...)
	dst = strconv.AppendInt(dst, int64(d.MemoryMB), 10)
	dst = append(dst, "</memoryMB>\n    <diskMB>"...)
	dst = strconv.AppendInt(dst, int64(d.DiskMB), 10)
	dst = append(dst, "</diskMB>\n  </hardware>\n  <os>"...)
	dst = xmlwire.AppendEscaped(dst, d.OS)
	dst = append(dst, "</os>\n  <performed>"...)
	for _, a := range d.Actions {
		dst = appendPair(dst, "\n    <action op=\"", a.Op, `" target="`, a.Target)
		for _, p := range a.Params {
			dst = appendPair(dst, "\n      <param name=\"", p.Name, `" value="`, p.Value)
			dst = append(dst, "</param>"...)
		}
		dst = appendEnd(dst, "\n    </action>", len(a.Params))
	}
	dst = appendEnd(dst, "\n  </performed>\n  <integrity>", len(d.Actions))
	for _, s := range d.Integrity {
		dst = appendPair(dst, "\n    <artifact path=\"", s.Path, `" sum="`, s.Sum)
		dst = append(dst, "</artifact>"...)
	}
	dst = appendEnd(dst, "\n  </integrity>", len(d.Integrity))
	return append(dst, "\n</golden-machine>"...)
}

// appendEnd appends an end tag that follows its indent, which an
// element with no children (n == 0) leaves out: the end tag closes the
// line the start tag opened.
func appendEnd(dst []byte, indented string, n int) []byte {
	if n == 0 {
		indented = strings.TrimLeft(indented, "\n ")
	}
	return append(dst, indented...)
}

// appendPair appends a start tag's opening and its two attributes,
// escaped, and closes the tag.
func appendPair(dst []byte, open, a, sep, b string) []byte {
	dst = append(dst, open...)
	dst = xmlwire.AppendEscaped(dst, a)
	dst = append(dst, sep...)
	dst = xmlwire.AppendEscaped(dst, b)
	return append(dst, `">`...)
}
