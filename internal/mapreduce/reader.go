package mapreduce

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// maxLineOverrun bounds how far past a split's end the record reader
// will look for the terminating newline of its final record.
const maxLineOverrun = 1 << 20 // 1 MiB

// InputSplit is the unit of work of one map task: one DFS chunk plus
// the replica hosts used for locality scheduling.
type InputSplit struct {
	Path   string
	Offset int64
	Length int64
	Hosts  []string
}

// splitsFor expands the job's input paths into one split per DFS
// chunk, so the scheduler "launches as many map tasks as possible,
// each chunk being processed by a different map task" (§III).
func splitsFor(fs *dfs.FileSystem, inputPaths []string) ([]InputSplit, error) {
	var files []string
	for _, p := range inputPaths {
		if fs.Exists(p) {
			files = append(files, p)
			continue
		}
		listed := fs.List(p)
		if len(listed) == 0 {
			return nil, fmt.Errorf("mapreduce: input %q matches no files", p)
		}
		files = append(files, listed...)
	}
	var splits []InputSplit
	for _, f := range files {
		chunks, err := fs.Chunks(f)
		if err != nil {
			return nil, err
		}
		for _, c := range chunks {
			splits = append(splits, InputSplit{
				Path:   c.Path,
				Offset: c.Offset,
				Length: c.Length,
				Hosts:  c.Hosts,
			})
		}
	}
	return splits, nil
}

// readSplit reads the records belonging to a split, dispatching on
// the underlying file's format: files with the recordio header are
// read as binary key-value records, anything else as non-empty text
// lines whose key is the byte offset (Hadoop TextInputFormat). The
// sniff costs one tiny ReadRange per split; the engine's pipelines mix
// text uploads and binary part files freely because of it.
//
// Nothing is copied per record: a key and a value reach fn as views of
// the split's ReadRange buffer — a text offset key as a view of an
// append-only arena of its own — and since neither is written again,
// they stay valid for as long as anything holds them.
func readSplit(fs dfs.Store, sp InputSplit, fn func(key, value string) error) error {
	hdr, err := fs.ReadRange(sp.Path, 0, recordio.HeaderLen)
	if err != nil {
		return err
	}
	if recordio.IsRecordData(hdr) {
		return readSplitRecords(fs, sp, fn)
	}
	var keys offsetKeys
	return readSplitLines(fs, sp, func(off int64, line string) error {
		return fn(keys.key(off), line)
	})
}

// readSplitRecords reads the binary records belonging to a split: the
// sync blocks starting inside it (see recordio.ScanSplit), with the
// same read-past-the-end overrun budget the line reader uses to
// finish a record straddling the split boundary.
func readSplitRecords(fs dfs.Store, sp InputSplit, fn func(key, value string) error) error {
	reqLen := sp.Length + maxLineOverrun
	buf, err := fs.ReadRange(sp.Path, sp.Offset, reqLen)
	if err != nil {
		return err
	}
	rangeLimited := int64(len(buf)) == reqLen
	err = recordio.ScanSplit(buf, sp.Offset, sp.Offset, sp.Offset+sp.Length, rangeLimited, func(k, v []byte) error {
		return fn(view(k), view(v))
	})
	if err != nil {
		return fmt.Errorf("mapreduce: %s: %v", sp.Path, err)
	}
	return nil
}

// readSplitLines reads the line records belonging to a split with
// Hadoop TextInputFormat semantics: a record belongs to the split in
// which it starts. A split whose offset is not 0 skips the (possibly
// partial) line in progress at its start — the previous split reads
// across the boundary to finish it — and every split reads past its
// end to complete its final record. The callback receives the byte
// offset of each line (the record key) and the line text, a view of
// the split's buffer, without the trailing newline or carriage
// return. Empty lines, after that trim, are not records: the callback
// never sees them, as the driver-side record walks
// (geolife.ForEachRecord, ForEachTrace) skip them too. An error from
// the callback comes back naming the file.
func readSplitLines(fs dfs.Store, sp InputSplit, fn func(offset int64, line string) error) error {
	// Start one byte early (as Hadoop's LineRecordReader does) so that
	// a record beginning exactly at the split boundary is not skipped:
	// the "first line" discarded below is then the line containing the
	// boundary's preceding byte, which ends either before or at the
	// boundary.
	readStart := sp.Offset
	if sp.Offset > 0 {
		readStart = sp.Offset - 1
	}
	reqLen := (sp.Offset - readStart) + sp.Length + maxLineOverrun
	buf, err := fs.ReadRange(sp.Path, readStart, reqLen)
	if err != nil {
		return err
	}
	// ReadRange truncates at end-of-file; a buffer of the full
	// requested length may therefore have been cut by the range limit
	// rather than by EOF, and an unterminated tail then means a record
	// longer than the reader's overrun bound — not a final line.
	rangeLimited := int64(len(buf)) == reqLen
	pos := int64(0) // position within buf; file offset is readStart+pos
	if sp.Offset > 0 {
		// Skip the line in progress at the split start.
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			// The whole split is the interior of one huge line. That
			// record belongs to the split it starts in, whose reader
			// reports the oversized-line error; here there is nothing
			// to emit.
			return nil
		}
		pos = int64(nl) + 1
	}
	end := sp.Offset + sp.Length
	for readStart+pos < end {
		if pos >= int64(len(buf)) {
			break // end of file
		}
		rest := buf[pos:]
		nl := bytes.IndexByte(rest, '\n')
		var line []byte
		var advance int64
		if nl < 0 {
			if rangeLimited {
				// The record starting at this offset continues past the
				// end of the range-limited buffer: emitting rest would
				// silently truncate it as if it were EOF. Any such
				// record is over maxLineOverrun bytes long (it starts
				// before the split end and fills the rest of the
				// buffer), so it exceeds the reader's contract either
				// way.
				return fmt.Errorf("mapreduce: %s: line starting at offset %d exceeds the %d-byte maximum record length", sp.Path, readStart+pos, maxLineOverrun)
			}
			line = rest // final line of the file without trailing newline
			advance = int64(len(rest))
		} else {
			line = rest[:nl]
			advance = int64(nl) + 1
		}
		// Trim a carriage return for CRLF input.
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			if err := fn(readStart+pos, view(line)); err != nil {
				return fmt.Errorf("mapreduce: %s: %w", sp.Path, err)
			}
		}
		if advance == 0 {
			break
		}
		pos += advance
	}
	return nil
}

// offsetKeys renders records' byte offsets as map input keys, as
// Hadoop's TextInputFormat does, into blocks it fills once and never
// writes again: each key is a view, and a split's keys share a few
// allocations.
type offsetKeys []byte

func (a *offsetKeys) key(off int64) string {
	if cap(*a)-len(*a) < 20 { // an int64's longest rendering
		*a = make([]byte, 0, 64<<10)
	}
	n := len(*a)
	*a = strconv.AppendInt(*a, off, 10)
	return view((*a)[n:])
}
