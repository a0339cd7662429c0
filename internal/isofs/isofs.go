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
//
// Entries are in strictly increasing path order, so an image has no
// duplicate path and one set of files has exactly one encoding. The
// image is written once, by appending (Writer), and read in place
// (Read): neither side stages a file's bytes anywhere else.
package isofs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var magic = [8]byte{'V', 'M', 'P', 'I', 'S', 'O', '1', '\n'}

// Limits keep hostile or buggy images from exhausting memory.
const (
	MaxFiles    = 4096
	MaxPathLen  = 255
	MaxFileSize = 64 << 20 // 64 MiB per file
)

// File is one entry of a read image. Path and Data are slices of the
// image they were read from.
type File struct {
	Path, Data []byte
}

// checkEntry enforces the entry rules on a path that follows prev (nil
// for the first entry): non-empty, relative, clean, ASCII printable, at
// most MaxPathLen bytes and after prev; and a file of at most
// MaxFileSize bytes.
func checkEntry(prev, p []byte, size int) error {
	if len(p) == 0 {
		return errors.New("isofs: empty path")
	}
	if len(p) > MaxPathLen {
		return fmt.Errorf("isofs: path %q… exceeds %d bytes", p[:32], MaxPathLen)
	}
	if p[0] == '/' {
		return fmt.Errorf("isofs: absolute path %q", p)
	}
	for seg, rest, more := p, p, true; more; {
		if seg, rest, more = bytes.Cut(rest, []byte("/")); len(seg) == 0 || string(seg) == "." || string(seg) == ".." {
			return fmt.Errorf("isofs: path %q has empty or dot segment", p)
		}
	}
	for _, c := range p {
		if c < 0x20 || c == 0x7f {
			return fmt.Errorf("isofs: path %q has control character", p)
		}
	}
	if bytes.Compare(prev, p) >= 0 {
		return fmt.Errorf("isofs: path %q does not follow %q", p, prev)
	}
	if size > MaxFileSize {
		return fmt.Errorf("isofs: file %q exceeds %d bytes", p, MaxFileSize)
	}
	return nil
}

// Writer builds an image by appending to one byte slice.
type Writer struct {
	buf  []byte
	n    int // files added
	prev int // offset of the last file's path length; 0 before the first
}

// NewWriter starts an image in a buffer of capacity sizeHint.
func NewWriter(sizeHint int) *Writer {
	buf := append(make([]byte, 0, sizeHint), magic[:]...)
	return &Writer{buf: append(buf, 0, 0, 0, 0)}
}

// Add appends one file at path, after every path added before it. The
// file's bytes are whatever data appends to the slice it is given, so
// they are written straight into the image. A refused file leaves the
// image as it was.
func (w *Writer) Add(path []byte, data func([]byte) []byte) error {
	if w.n >= MaxFiles {
		return fmt.Errorf("isofs: image full (%d files)", MaxFiles)
	}
	at := len(w.buf)
	b := binary.LittleEndian.AppendUint16(w.buf, uint16(len(path)))
	b = append(b, path...)
	b = data(append(b, 0, 0, 0, 0))
	pathAt, dataAt := at+2, at+2+len(path)+4
	var prev []byte
	if w.prev > 0 {
		prev = b[w.prev+2 : w.prev+2+int(binary.LittleEndian.Uint16(b[w.prev:]))]
	}
	if err := checkEntry(prev, b[pathAt:dataAt-4], len(b)-dataAt); err != nil {
		w.buf = b[:at]
		return err
	}
	binary.LittleEndian.PutUint32(b[dataAt-4:], uint32(len(b)-dataAt))
	w.buf, w.prev = b, at
	w.n++
	return nil
}

// Finish seals the image — file count and CRC — and returns it.
func (w *Writer) Finish() []byte {
	binary.LittleEndian.PutUint32(w.buf[len(magic):], uint32(w.n))
	return binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
}

// Read checks an image — magic, CRC, limits and path order — and returns
// its files in on-disc (path) order, as slices of blob.
func Read(blob []byte) ([]File, error) {
	if len(blob) < len(magic)+8 {
		return nil, errors.New("isofs: image too short")
	}
	if !bytes.Equal(blob[:len(magic)], magic[:]) {
		return nil, errors.New("isofs: bad magic")
	}
	body := blob[:len(blob)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(blob[len(body):]) {
		return nil, errors.New("isofs: CRC mismatch (corrupt image)")
	}
	count := binary.LittleEndian.Uint32(body[len(magic):])
	if count > MaxFiles {
		return nil, fmt.Errorf("isofs: file count %d exceeds limit", count)
	}
	// An entry takes at least 7 bytes, so a count the body cannot hold
	// allocates nothing past what the body could.
	b := body[len(magic)+4:]
	files := make([]File, 0, min(int(count), len(b)/7))
	var prev []byte
	for i := 0; i < int(count); i++ {
		if len(b) < 2 || len(b) < 2+int(binary.LittleEndian.Uint16(b))+4 {
			return nil, fmt.Errorf("isofs: truncated entry %d: %w", i, io.ErrUnexpectedEOF)
		}
		plen := int(binary.LittleEndian.Uint16(b))
		path, size := b[2:2+plen:2+plen], binary.LittleEndian.Uint32(b[2+plen:])
		b = b[2+plen+4:]
		// A length past the end is refused before anything trusts it.
		if uint64(size) > uint64(len(b)) {
			return nil, fmt.Errorf("isofs: truncated data of entry %d: %w", i, io.ErrUnexpectedEOF)
		}
		if err := checkEntry(prev, path, int(size)); err != nil {
			return nil, err
		}
		files = append(files, File{Path: path, Data: b[:size:size]})
		prev, b = path, b[size:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("isofs: %d trailing bytes", len(b))
	}
	return files, nil
}
