package isofs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Image is the map-backed builder and reader the package had before
// Writer and Read: files added in any order, a second Add at a path
// replacing the first, serialisation sorting by path. It is kept here as
// the oracle Writer and Read are held to: the Writer must produce its
// bytes, and Read must accept no image it refuses.
type Image struct {
	files []oracleFile
	index map[string]int
}

type oracleFile struct {
	Path string
	Data []byte
}

// New returns an empty oracle image.
func New() *Image {
	return &Image{index: make(map[string]int)}
}

// Add inserts a file, replacing any previous entry at the same path.
func (im *Image) Add(path string, data []byte) error {
	if err := checkEntry(nil, []byte(path), len(data)); err != nil {
		return err
	}
	if i, ok := im.index[path]; ok {
		im.files[i].Data = append([]byte(nil), data...)
		return nil
	}
	if len(im.files) >= MaxFiles {
		return fmt.Errorf("isofs: image full (%d files)", MaxFiles)
	}
	im.index[path] = len(im.files)
	im.files = append(im.files, oracleFile{Path: path, Data: append([]byte(nil), data...)})
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

// Bytes serializes the image with entries in sorted path order.
func (im *Image) Bytes() []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	files := append([]oracleFile(nil), im.files...)
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
	return buf.Bytes()
}

// SizeBytes is the serialized size: the length of Bytes.
func (im *Image) SizeBytes() int64 { return int64(len(im.Bytes())) }

// readOracle parses an image the old way: entries in any order, a
// repeated path replacing the earlier entry.
func readOracle(blob []byte) (*Image, error) {
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
		return nil, err
	}
	if count > MaxFiles {
		return nil, fmt.Errorf("isofs: file count %d exceeds limit", count)
	}
	im := New()
	for i := uint32(0); i < count; i++ {
		var plen uint16
		if err := binary.Read(r, binary.LittleEndian, &plen); err != nil {
			return nil, err
		}
		pbuf := make([]byte, plen)
		if _, err := io.ReadFull(r, pbuf); err != nil {
			return nil, err
		}
		var dlen uint32
		if err := binary.Read(r, binary.LittleEndian, &dlen); err != nil {
			return nil, err
		}
		if int64(dlen) > int64(r.Len()) {
			return nil, io.ErrUnexpectedEOF
		}
		data := make([]byte, dlen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
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

// writeImage serialises the oracle's files with Writer.
func writeImage(im *Image) ([]byte, error) {
	w := NewWriter(0)
	for _, p := range im.Paths() {
		data, _ := im.Lookup(p)
		if err := w.Add([]byte(p), appendBytes(data)); err != nil {
			return nil, err
		}
	}
	return w.Finish(), nil
}

// readImage reads blob with Read into an oracle image.
func readImage(blob []byte) (*Image, error) {
	files, err := Read(blob)
	if err != nil {
		return nil, err
	}
	im := New()
	for _, f := range files {
		if err := im.Add(string(f.Path), f.Data); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// appendBytes is the Writer.Add data function for fixed content.
func appendBytes(data []byte) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, data...) }
}
