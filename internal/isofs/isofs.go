// Package isofs implements the miniature single-session CD-ROM image
// format the production line uses to deliver configuration scripts into
// guests (paper §4.1: "The DAG actions are converted into Perl scripts,
// and the Production Line writes each such script to one or more CD/ISO
// images that are then connected to the cloned VM as virtual CD-ROMs").
//
// The format is deliberately tiny but real — a magic header, a file
// table of (path, data) entries, and a CRC32 trailer — so that guests
// actually parse bytes produced by the host and corruption is detected.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "VMPISO1\n"
//	count   uint32
//	entries count × { pathLen uint16, path, dataLen uint32, data }
//	crc32   uint32   (IEEE, over everything before it)
package isofs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"
)

var magic = [8]byte{'V', 'M', 'P', 'I', 'S', 'O', '1', '\n'}

// Limits keep hostile or buggy images from exhausting memory.
const (
	MaxFiles    = 4096
	MaxPathLen  = 255
	MaxFileSize = 64 << 20 // 64 MiB per file
)

// File is one entry in an image.
type File struct {
	Path string
	Data []byte
}

// Image is a parsed or under-construction CD image.
type Image struct {
	files []File
	index map[string]int
}

// New returns an empty image.
func New() *Image {
	return &Image{index: make(map[string]int)}
}

// validatePath enforces the path rules: non-empty, relative, clean,
// ASCII printable, and at most MaxPathLen bytes.
func validatePath(p string) error {
	if p == "" {
		return errors.New("isofs: empty path")
	}
	if len(p) > MaxPathLen {
		return fmt.Errorf("isofs: path %q exceeds %d bytes", p[:32]+"…", MaxPathLen)
	}
	if strings.HasPrefix(p, "/") {
		return fmt.Errorf("isofs: absolute path %q", p)
	}
	for _, seg := range strings.Split(p, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("isofs: path %q has empty or dot segment", p)
		}
	}
	for i := 0; i < len(p); i++ {
		if p[i] < 0x20 || p[i] == 0x7f {
			return fmt.Errorf("isofs: path %q has control character", p)
		}
	}
	return nil
}

// Add inserts a file, replacing any previous entry at the same path.
func (im *Image) Add(path string, data []byte) error {
	if err := validatePath(path); err != nil {
		return err
	}
	if len(data) > MaxFileSize {
		return fmt.Errorf("isofs: file %q exceeds %d bytes", path, MaxFileSize)
	}
	if i, ok := im.index[path]; ok {
		im.files[i].Data = append([]byte(nil), data...)
		return nil
	}
	if len(im.files) >= MaxFiles {
		return fmt.Errorf("isofs: image full (%d files)", MaxFiles)
	}
	im.index[path] = len(im.files)
	im.files = append(im.files, File{Path: path, Data: append([]byte(nil), data...)})
	return nil
}

// Lookup returns a file's content.
func (im *Image) Lookup(path string) ([]byte, bool) {
	i, ok := im.index[path]
	if !ok {
		return nil, false
	}
	return im.files[i].Data, true
}

// Len reports the number of files.
func (im *Image) Len() int { return len(im.files) }

// Paths returns all paths, sorted.
func (im *Image) Paths() []string {
	out := make([]string, 0, len(im.files))
	for _, f := range im.files {
		out = append(out, f.Path)
	}
	sort.Strings(out)
	return out
}

// WriteTo serializes the image. Entries are written in sorted path
// order so identical content always produces identical bytes.
func (im *Image) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	files := append([]File(nil), im.files...)
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(files)))
	buf.Write(n4[:])
	var n2 [2]byte
	for _, f := range files {
		binary.LittleEndian.PutUint16(n2[:], uint16(len(f.Path)))
		buf.Write(n2[:])
		buf.WriteString(f.Path)
		binary.LittleEndian.PutUint32(n4[:], uint32(len(f.Data)))
		buf.Write(n4[:])
		buf.Write(f.Data)
	}
	binary.LittleEndian.PutUint32(n4[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(n4[:])
	return buf.WriteTo(w)
}

// Bytes serializes the image into a fresh slice.
func (im *Image) Bytes() []byte {
	var buf bytes.Buffer
	im.WriteTo(&buf) // writing to a bytes.Buffer cannot fail
	return buf.Bytes()
}

// SizeBytes is the serialized size: the length of Bytes.
func (im *Image) SizeBytes() int64 { return int64(len(im.Bytes())) }

// Read parses an image, verifying the magic and CRC.
func Read(blob []byte) (*Image, error) {
	if len(blob) < len(magic)+8 {
		return nil, errors.New("isofs: image too short")
	}
	if !bytes.Equal(blob[:len(magic)], magic[:]) {
		return nil, errors.New("isofs: bad magic")
	}
	body, trailer := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, errors.New("isofs: CRC mismatch (corrupt image)")
	}
	r := bytes.NewReader(body[len(magic):])
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("isofs: truncated header: %w", err)
	}
	if count > MaxFiles {
		return nil, fmt.Errorf("isofs: file count %d exceeds limit", count)
	}
	im := New()
	for i := uint32(0); i < count; i++ {
		var plen uint16
		if err := binary.Read(r, binary.LittleEndian, &plen); err != nil {
			return nil, fmt.Errorf("isofs: truncated entry %d: %w", i, err)
		}
		if int(plen) > MaxPathLen {
			return nil, fmt.Errorf("isofs: entry %d path too long", i)
		}
		pbuf := make([]byte, plen)
		if _, err := io.ReadFull(r, pbuf); err != nil {
			return nil, fmt.Errorf("isofs: truncated path of entry %d: %w", i, err)
		}
		var dlen uint32
		if err := binary.Read(r, binary.LittleEndian, &dlen); err != nil {
			return nil, fmt.Errorf("isofs: truncated entry %d: %w", i, err)
		}
		if dlen > MaxFileSize {
			return nil, fmt.Errorf("isofs: entry %d data too large", i)
		}
		// A length past the end is refused before it is allocated: a
		// few hostile bytes must not cost MaxFileSize of memory.
		if int64(dlen) > int64(r.Len()) {
			return nil, fmt.Errorf("isofs: truncated data of entry %d: %w", i, io.ErrUnexpectedEOF)
		}
		data := make([]byte, dlen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("isofs: truncated data of entry %d: %w", i, err)
		}
		if err := im.Add(string(pbuf), data); err != nil {
			return nil, err
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("isofs: %d trailing bytes", r.Len())
	}
	return im, nil
}
