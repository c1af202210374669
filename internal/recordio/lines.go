// The text record form: one record per line, split with Hadoop
// TextInputFormat's rules, so a text file is read through the same
// split-scan contract as a binary record file (see ScanSplit).

package recordio

import (
	"bytes"
	"fmt"
)

// ScanFunc is the contract ScanSplit and ScanLines share: scan the
// records a split [start, end) of a file owns, from buf holding the
// file bytes from offset bufStart onward, handing each record to fn as
// views of buf.
type ScanFunc func(buf []byte, bufStart, start, end int64, rangeLimited bool, fn func(key, value []byte) error) error

// ScannerFor picks how to scan a file from its first HeaderLen bytes:
// ScanSplit for a record file, ScanLines for anything else. lead is
// how far before a split's start the scan buffer must begin; a split
// read from start-lead loses no record.
func ScannerFor(hdr []byte) (scan ScanFunc, lead int64) {
	if IsRecordData(hdr) {
		return ScanSplit, 0
	}
	return ScanLines, 1
}

// ScanLines is ScanSplit for a text file, whose records are its lines,
// as Hadoop's TextInputFormat reads them. A line belongs to the split
// it starts in. A split past offset 0 skips the line in progress at
// its start, so buf must begin at least one byte before start: the
// line skipped is the one holding byte start-1, which ends before or
// at start, and which the previous split reads past its end to finish.
// A record reaches fn as a nil key and the line without its '\n' or a
// trailing '\r'; a line that is empty after that trim is not a record.
//
// rangeLimited says buf may have been cut by the read budget rather
// than EOF: a line still unterminated at the end of buf is then an
// error, not a final line cut short.
func ScanLines(buf []byte, bufStart, start, end int64, rangeLimited bool, fn func(key, value []byte) error) error {
	pos := start - bufStart // cursor within buf; file offset is bufStart+pos
	if start > 0 {
		if bufStart >= start {
			return fmt.Errorf("recordio: line scan buffer starts at %d, not before split start %d", bufStart, start)
		}
		nl := bytes.IndexByte(buf[min(pos-1, int64(len(buf))):], '\n')
		if nl < 0 {
			// No line starts here: the split is the interior of one
			// line, which the split it starts in reads or rejects.
			return nil
		}
		pos += int64(nl)
	} else if bufStart != 0 {
		return fmt.Errorf("recordio: line scan buffer starts at %d, after split start 0", bufStart)
	}
	for bufStart+pos < end && pos < int64(len(buf)) {
		line := buf[pos:]
		next := int64(len(buf))
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line, next = line[:nl], pos+int64(nl)+1
		} else if rangeLimited {
			return fmt.Errorf("recordio: line starting at offset %d extends past the reader's overrun budget", bufStart+pos)
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			if err := fn(nil, line); err != nil {
				return err
			}
		}
		pos = next
	}
	return nil
}
