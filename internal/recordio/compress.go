// Compressed record files (format version 2) and a streaming reader
// over both record-file formats. Version 2 drops the sync markers of
// the splittable v1 format and instead frames records into
// independently DEFLATE-compressed blocks:
//
//	RCIO\x02 | block... 	block = uvarint rawLen | uvarint compLen | compLen bytes
//
// Records inside a block's decompressed payload use the same uvarint
// key/value framing as v1, and a record never straddles a block
// boundary (a record larger than the block size gets a block of its
// own). The format is for sequentially-read intermediate files — map
// spill runs — which are merged record-at-a-time, never split, so
// resynchronisation markers would be dead weight next to the
// compression win.
//
// FileReader streams either format through a caller-supplied ranged
// fetch (a dfs.ReadRange closure in the engine) so a reduce-side merge
// holds one fetch window per run instead of whole run files.

package recordio

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

const (
	// DefaultCompressBlock is the raw payload size a CompressedWriter
	// accumulates before compressing and emitting a block.
	DefaultCompressBlock = 64 << 10
	// fetchWindow is the FileReader's ranged-read granularity.
	fetchWindow = 256 << 10
)

var compressedHeader = [HeaderLen]byte{'R', 'C', 'I', 'O', 2}

// CompressedWriter accumulates an in-memory version-2 record file,
// compressing each block with DEFLATE as it fills.
type CompressedWriter struct {
	buf       []byte // encoded file
	block     []byte // pending raw payload
	blockSize int
	comp      bytes.Buffer  // the block being compressed
	zw        *flate.Writer // borrowed from flateWriters until Bytes
}

// flateWriters recycles DEFLATE compressors across blocks and files: a
// map task writes many small run files, and a fresh flate.Writer costs
// far more than compressing a few records. A Reset writer produces the
// same bytes as a new one, so file contents do not depend on the pool.
var flateWriters = sync.Pool{New: func() any {
	zw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err) // flate.NewWriter only fails on an invalid level constant
	}
	return zw
}}

// NewCompressedWriter returns a writer with the header already
// emitted. blockSize ≤ 0 selects DefaultCompressBlock.
func NewCompressedWriter(blockSize int) *CompressedWriter {
	if blockSize <= 0 {
		blockSize = DefaultCompressBlock
	}
	w := &CompressedWriter{blockSize: blockSize}
	w.buf = append(w.buf, compressedHeader[:]...)
	return w
}

// Add appends one key/value record. The record lands wholly inside the
// current block; the block is flushed once it reaches the block size.
func (w *CompressedWriter) Add(key, value string) { addCompressed(w, key, value) }

// AddBytes is Add for a record held as bytes; the bytes are copied.
func (w *CompressedWriter) AddBytes(key, value []byte) { addCompressed(w, key, value) }

func addCompressed[T ~string | ~[]byte](w *CompressedWriter, key, value T) {
	w.block = appendFrame(w.block, key, value)
	if len(w.block) >= w.blockSize {
		w.flushBlock()
	}
}

// flushBlock compresses and emits the pending payload as one block.
func (w *CompressedWriter) flushBlock() {
	if len(w.block) == 0 {
		return
	}
	if w.zw == nil {
		w.zw = flateWriters.Get().(*flate.Writer)
	}
	w.comp.Reset()
	w.zw.Reset(&w.comp)
	if _, err := w.zw.Write(w.block); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	if err := w.zw.Close(); err != nil {
		panic(err)
	}
	w.buf = appendUvarint(w.buf, uint64(len(w.block)))
	w.buf = appendUvarint(w.buf, uint64(w.comp.Len()))
	w.buf = append(w.buf, w.comp.Bytes()...)
	w.block = w.block[:0]
}

// Len returns the encoded size so far, excluding the pending block.
func (w *CompressedWriter) Len() int { return len(w.buf) }

// Bytes flushes the pending block and returns the encoded file. The
// writer must not be reused after.
func (w *CompressedWriter) Bytes() []byte {
	w.flushBlock()
	if w.zw != nil {
		flateWriters.Put(w.zw)
		w.zw = nil
	}
	return w.buf
}

// FetchFunc reads n bytes of a file starting at off. A fetch may
// return fewer bytes only because the file ends (dfs.ReadRange
// semantics); any other shortfall must surface as an error. The
// returned bytes must never change afterwards: the reader hands out
// views of them.
type FetchFunc func(off, n int64) ([]byte, error)

// FileReader streams the records of a version-1 or version-2 record
// file through a ranged fetch, holding at most one fetch window (plus
// one decompressed block for v2) in memory.
type FileReader struct {
	fetch   FetchFunc
	size    int64
	version byte

	off int64  // file offset of buf[0]
	buf []byte // fetched raw window, consumed from pos
	pos int

	block    []byte // v2: current decompressed payload
	blockPos int
	src      bytes.Reader  // v2: the compressed block being read
	zr       io.ReadCloser // v2: one decompressor, Reset per block
}

// NewFileReader opens a record file of the given total size, sniffing
// the format version from the header.
func NewFileReader(size int64, fetch FetchFunc) (*FileReader, error) {
	r := &FileReader{fetch: fetch, size: size}
	if size < HeaderLen {
		return nil, fmt.Errorf("recordio: file of %d bytes is shorter than a record-file header", size)
	}
	hdr, err := r.ensure(HeaderLen)
	if err != nil {
		return nil, err
	}
	switch {
	case bytes.Equal(hdr[:HeaderLen], fileHeader[:]):
		r.version = 1
	case bytes.Equal(hdr[:HeaderLen], compressedHeader[:]):
		r.version = 2
	default:
		return nil, fmt.Errorf("recordio: unrecognised record-file header")
	}
	r.pos += HeaderLen
	return r, nil
}

// ensure returns at least n unconsumed bytes starting at the cursor,
// fetching more of the file as needed. It returns fewer than n bytes
// without error only at end of file. A window that has to grow is
// rebuilt in a new slice, never shifted in place: records already
// returned are views of the old one.
func (r *FileReader) ensure(n int) ([]byte, error) {
	for len(r.buf)-r.pos < n {
		fetchAt := r.off + int64(len(r.buf))
		if fetchAt >= r.size {
			break // end of file
		}
		want := int64(fetchWindow)
		if n > fetchWindow {
			want = int64(n)
		}
		if fetchAt+want > r.size {
			want = r.size - fetchAt
		}
		chunk, err := r.fetch(fetchAt, want)
		if err != nil {
			return nil, err
		}
		if int64(len(chunk)) < want {
			return nil, fmt.Errorf("recordio: short fetch at offset %d: got %d of %d bytes", fetchAt, len(chunk), want)
		}
		if rest := r.buf[r.pos:]; len(rest) > 0 {
			chunk = append(append(make([]byte, 0, len(rest)+len(chunk)), rest...), chunk...)
		}
		r.off += int64(r.pos)
		r.buf, r.pos = chunk, 0
	}
	return r.buf[r.pos:], nil
}

// Next returns a copy of the next record. ok is false at a clean end
// of file; a truncated or corrupt file returns an error, never a
// silent stop.
func (r *FileReader) Next() (key, value string, ok bool, err error) {
	k, v, ok, err := r.NextBytes()
	return string(k), string(v), ok, err
}

// NextBytes is Next without the copy: key and value are views of the
// reader's window or decompressed block. They stay valid (and
// unchanged) for as long as the caller holds them.
func (r *FileReader) NextBytes() (key, value []byte, ok bool, err error) {
	if r.version == 2 {
		return r.nextCompressed()
	}
	return r.nextPlain()
}

// nextPlain advances through a v1 file, skipping sync markers.
func (r *FileReader) nextPlain() ([]byte, []byte, bool, error) {
	for {
		rest, err := r.ensure(syncLen + 2*maxUvarintLen)
		if err != nil {
			return nil, nil, false, err
		}
		if len(rest) == 0 {
			return nil, nil, false, nil // clean end of file
		}
		if len(rest) >= syncLen && bytes.Equal(rest[:syncLen], syncMarker[:]) {
			r.pos += syncLen
			continue
		}
		klen, kn := buvarint(rest)
		vlen, vn := buvarint(rest[kn:])
		if kn == 0 || vn == 0 || klen > maxFrameLen || vlen > maxFrameLen {
			return nil, nil, false, fmt.Errorf("recordio: corrupt record frame at offset %d", r.off+int64(r.pos))
		}
		frame := kn + vn + int(klen) + int(vlen)
		if rest, err = r.ensure(frame); err != nil {
			return nil, nil, false, err
		}
		if len(rest) < frame {
			return nil, nil, false, fmt.Errorf("recordio: truncated record at offset %d", r.off+int64(r.pos))
		}
		body := rest[kn+vn : frame : frame]
		r.pos += frame
		return body[:klen:klen], body[klen:], true, nil
	}
}

// nextCompressed advances through a v2 file, decompressing a block at
// a time.
func (r *FileReader) nextCompressed() ([]byte, []byte, bool, error) {
	if r.blockPos >= len(r.block) {
		ok, err := r.loadBlock()
		if err != nil || !ok {
			return nil, nil, false, err
		}
	}
	rest := r.block[r.blockPos:]
	klen, kn := buvarint(rest)
	vlen, vn := buvarint(rest[kn:])
	if kn == 0 || vn == 0 || klen > maxFrameLen || vlen > maxFrameLen {
		return nil, nil, false, fmt.Errorf("recordio: corrupt record frame in block at offset %d", r.off+int64(r.pos))
	}
	frame := kn + vn + int(klen) + int(vlen)
	if frame > len(rest) {
		return nil, nil, false, fmt.Errorf("recordio: record extends past its compressed block at offset %d", r.off+int64(r.pos))
	}
	body := rest[kn+vn : frame : frame]
	r.blockPos += frame
	return body[:klen:klen], body[klen:], true, nil
}

// maxInflation is DEFLATE's best possible compression ratio (a run of
// 258-byte matches at two bits apiece). A block header claiming more
// is corrupt, and refusing it bounds what a hostile file can make the
// reader allocate by the bytes the file really holds.
const maxInflation = 1032

// loadBlock fetches and decompresses the next block. ok is false at a
// clean end of file.
func (r *FileReader) loadBlock() (bool, error) {
	hdr, err := r.ensure(2 * maxUvarintLen)
	if err != nil {
		return false, err
	}
	if len(hdr) == 0 {
		return false, nil // clean end of file
	}
	rawLen, rn := buvarint(hdr)
	compLen, cn := buvarint(hdr[rn:])
	if rn == 0 || cn == 0 || rawLen == 0 || rawLen > maxFrameLen || compLen > maxFrameLen || rawLen > maxInflation*compLen {
		return false, fmt.Errorf("recordio: corrupt block header at offset %d", r.off+int64(r.pos))
	}
	need := rn + cn + int(compLen)
	if hdr, err = r.ensure(need); err != nil {
		return false, err
	}
	if len(hdr) < need {
		return false, fmt.Errorf("recordio: truncated block at offset %d", r.off+int64(r.pos))
	}
	r.src.Reset(hdr[rn+cn : need])
	if r.zr == nil {
		r.zr = flate.NewReader(&r.src)
	} else if err := r.zr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return false, err
	}
	// A fresh payload per block: its records are handed out as views.
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(r.zr, raw); err != nil {
		return false, fmt.Errorf("recordio: block at offset %d does not decompress to %d bytes: %v", r.off+int64(r.pos), rawLen, err)
	}
	r.pos += need
	r.block, r.blockPos = raw, 0
	return true, nil
}

// BytesFetcher adapts an in-memory file to a FetchFunc, truncating at
// end of data like dfs.ReadRange.
func BytesFetcher(data []byte) FetchFunc {
	return func(off, n int64) ([]byte, error) {
		if off >= int64(len(data)) {
			return nil, nil
		}
		end := off + n
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		return data[off:end], nil
	}
}
