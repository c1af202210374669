// The binary record-file format: a magic header, uvarint-framed
// key/value records, and a fixed sync marker injected at least every
// syncInterval bytes — the SequenceFile analogue that makes binary
// part files splittable. A split owns the records of every sync block
// whose start offset falls inside [split start, split end): the
// initial block starts right after the header, every later block
// starts at its sync marker, and a reader scans forward past the
// split end until the first marker owned by the next split (or EOF),
// exactly as Hadoop's SequenceFile reader resynchronises.
//
// Hadoop writes a per-file random marker into the header; this format
// uses one fixed high-entropy 16-byte marker for all files so a
// header sniff needs only 5 bytes. A record that happens to contain
// the marker bytes could in principle desynchronise a mid-file split
// scan; with 16 fixed bytes the accepted collision risk is 2^-128 per
// record position.

package recordio

import (
	"bytes"
	"fmt"
)

const (
	// HeaderLen is the length of the file header: the 4-byte magic
	// plus a format version byte. Sniffing a file needs only this
	// prefix (see IsRecordData).
	HeaderLen = 5
	// syncInterval is the minimum distance between sync markers; a
	// marker is written before the first record that would stretch the
	// current block past it.
	syncInterval = 4096
	// syncLen is the sync-marker length.
	syncLen = 16
	// maxFrameLen bounds a single key or value length, as a sanity
	// check against scanning desynchronised or corrupt bytes.
	maxFrameLen = 64 << 20
)

var fileHeader = [HeaderLen]byte{'R', 'C', 'I', 'O', 1}

var syncMarker = [syncLen]byte{
	0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15,
	0xf3, 0x9c, 0xc0, 0x60, 0xa3, 0xed, 0xc8, 0x34,
}

// IsRecordData reports whether b starts with the record-file header —
// the format sniff behind ScannerFor.
func IsRecordData(b []byte) bool {
	return len(b) >= HeaderLen && bytes.Equal(b[:HeaderLen], fileHeader[:])
}

// Writer accumulates an in-memory record file. The engine buffers
// whole part files before a single DFS create, so the writer exposes
// the final bytes rather than streaming.
type Writer struct {
	buf       []byte
	sinceSync int
}

// NewWriter returns a writer with the header already emitted.
func NewWriter() *Writer {
	w := &Writer{}
	w.buf = append(w.buf, fileHeader[:]...)
	return w
}

// appendFrame appends one uvarint-framed key/value record to dst.
func appendFrame[T ~string | ~[]byte](dst []byte, key, value T) []byte {
	dst = appendUvarint(dst, uint64(len(key)))
	dst = appendUvarint(dst, uint64(len(value)))
	dst = append(dst, key...)
	return append(dst, value...)
}

// Add appends one key/value record, preceded by a sync marker when
// the current block has reached the sync interval.
func (w *Writer) Add(key, value string) { addRecord(w, key, value) }

// AddBytes is Add for a record held as bytes (a view of a map task's
// buffer, an encoding in a scratch slice); the bytes are copied.
func (w *Writer) AddBytes(key, value []byte) { addRecord(w, key, value) }

func addRecord[T ~string | ~[]byte](w *Writer, key, value T) {
	if w.sinceSync >= syncInterval {
		w.buf = append(w.buf, syncMarker[:]...)
		w.sinceSync = 0
	}
	n := len(w.buf)
	w.buf = appendFrame(w.buf, key, value)
	w.sinceSync += len(w.buf) - n
}

// Len returns the current encoded size in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Bytes returns the encoded file. The writer must not be reused after.
func (w *Writer) Bytes() []byte { return w.buf }

// ScanAll iterates every record of a complete in-memory record file.
func ScanAll(data []byte, fn func(key, value string) error) error {
	return scanAll(data, fn)
}

// ScanAllBytes is ScanAll handing each record over as views of data
// rather than as string copies: a walk that looks at few of the
// records it passes allocates nothing for the others. The views are
// valid only during the call.
func ScanAllBytes(data []byte, fn func(key, value []byte) error) error {
	return scanAll(data, fn)
}

func scanAll[T ~string | ~[]byte](data []byte, fn func(key, value T) error) error {
	if !IsRecordData(data) {
		return fmt.Errorf("recordio: data does not start with a record-file header")
	}
	return scanSplit(data, 0, 0, int64(len(data)), false, fn)
}

// ScanSplit iterates the records a split [start, end) of a record
// file owns. buf holds the file bytes from offset bufStart onward —
// at least through the split plus enough overrun to finish the
// split's final block. bufStart must be ≤ start.
//
// Ownership follows block starts: the record block beginning at file
// offset p (the initial block at HeaderLen, every other at its sync
// marker) belongs to the split with p in [start, end). The scan
// therefore seeks the first owned block, emits records — reading past
// end if the block extends there — and stops at the first marker at
// or past end, or at end of data.
//
// rangeLimited says buf may have been cut by the read budget rather
// than EOF; running out of buffer mid-scan is then a record-too-long
// error instead of end-of-file.
//
// Each record reaches fn as views of buf, not copies: they stay valid
// as long as buf's bytes are not written, which the engine's map input
// relies on (a split's buffer is never written again).
func ScanSplit(buf []byte, bufStart, start, end int64, rangeLimited bool, fn func(key, value []byte) error) error {
	return scanSplit(buf, bufStart, start, end, rangeLimited, fn)
}

// scanSplit is the one frame walker behind every scan entry point; T
// decides whether a record reaches fn as string copies or as views of
// buf.
func scanSplit[T ~string | ~[]byte](buf []byte, bufStart, start, end int64, rangeLimited bool, fn func(key, value T) error) error {
	if bufStart > start {
		return fmt.Errorf("recordio: scan buffer starts at %d, after split start %d", bufStart, start)
	}
	// Locate the first owned block's first record.
	pos := int64(0) // cursor within buf; file offset is bufStart+pos
	if start <= HeaderLen {
		// The split covers the file start, so it owns the initial block.
		if HeaderLen >= end {
			return nil
		}
		pos = HeaderLen - bufStart
	} else {
		if start-bufStart >= int64(len(buf)) {
			return nil // the file ends before the split starts
		}
		idx := bytes.Index(buf[start-bufStart:], syncMarker[:])
		if idx < 0 {
			return nil // no block starts here; a previous split reads across
		}
		marker := start - bufStart + int64(idx)
		if bufStart+marker >= end {
			return nil // first block here belongs to the next split
		}
		pos = marker + syncLen
	}
	if pos > int64(len(buf)) {
		return nil
	}
	for {
		rest := buf[pos:]
		if len(rest) == 0 {
			if rangeLimited {
				return fmt.Errorf("recordio: %s", overrunMsg(bufStart+pos))
			}
			return nil // end of file
		}
		// A sync marker here starts a new block; stop if the next split
		// owns it.
		if len(rest) >= syncLen && bytes.Equal(rest[:syncLen], syncMarker[:]) {
			if bufStart+pos >= end {
				return nil
			}
			pos += syncLen
			continue
		}
		klen, kn := buvarint(rest)
		vlen, vn := buvarint(rest[kn:])
		if kn == 0 || vn == 0 || klen > maxFrameLen || vlen > maxFrameLen {
			if (kn == 0 || vn == 0) && rangeLimited && len(rest) < 2*maxUvarintLen {
				return fmt.Errorf("recordio: %s", overrunMsg(bufStart+pos))
			}
			return fmt.Errorf("recordio: corrupt record frame at offset %d", bufStart+pos)
		}
		k, v := int(klen), int(vlen)
		frame := int64(kn+vn) + int64(k) + int64(v)
		if pos+frame > int64(len(buf)) {
			if rangeLimited {
				return fmt.Errorf("recordio: %s", overrunMsg(bufStart+pos))
			}
			return fmt.Errorf("recordio: truncated record at offset %d", bufStart+pos)
		}
		body := rest[kn+vn:]
		if err := fn(T(body[:k]), T(body[k:k+v])); err != nil {
			return err
		}
		pos += frame
	}
}

const maxUvarintLen = 10

func overrunMsg(off int64) string {
	return fmt.Sprintf("record block at offset %d extends past the reader's overrun budget", off)
}

// buvarint is uvarint over a byte slice.
func buvarint(b []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i > 9 || i == 9 && c > 1 {
				return 0, 0
			}
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}
