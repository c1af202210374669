package mapreduce

import (
	"fmt"

	"repro/internal/dfs"
	"repro/internal/recordio"
)

// maxOverrun bounds how far past a split's end the record reader will
// look for the end of its final record: a text line's newline or a
// record block's next sync marker.
const maxOverrun = 1 << 20 // 1 MiB

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
	files, err := fs.Expand(inputPaths)
	if err != nil {
		return nil, err
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

// readSplit reads the records belonging to a split, scanned by the
// recordio scanner its file's first bytes pick: binary key-value
// records from a record file, text lines with an empty key from
// anything else (see recordio.ScanLines). The sniff costs one tiny
// ReadRange per split; the engine's pipelines mix text uploads and
// binary part files freely because of it. The split is read with
// maxOverrun bytes past its end, to finish its final record.
//
// Nothing is copied per record: a key and a value reach fn as views of
// the split's ReadRange buffer, and since it is not written again,
// they stay valid for as long as anything holds them.
func readSplit(fs dfs.Store, sp InputSplit, fn func(key, value string) error) error {
	hdr, err := fs.ReadRange(sp.Path, 0, recordio.HeaderLen)
	if err != nil {
		return err
	}
	scan, lead := recordio.ScannerFor(hdr)
	readStart := max(sp.Offset-lead, 0)
	reqLen := sp.Offset - readStart + sp.Length + maxOverrun
	buf, err := fs.ReadRange(sp.Path, readStart, reqLen)
	if err != nil {
		return err
	}
	// ReadRange stops at end-of-file, so only a buffer of the full
	// requested length may have been cut by the budget instead.
	rangeLimited := int64(len(buf)) == reqLen
	err = scan(buf, readStart, sp.Offset, sp.Offset+sp.Length, rangeLimited, func(k, v []byte) error {
		return fn(view(k), view(v))
	})
	if err != nil {
		return fmt.Errorf("mapreduce: %s: %w", sp.Path, err)
	}
	return nil
}
