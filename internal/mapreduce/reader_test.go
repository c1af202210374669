package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/recordio"
)

func newReaderFS(t *testing.T, chunkSize int64) *dfs.FileSystem {
	t.Helper()
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: chunkSize, Replication: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// readAllSplits runs readSplit, and so recordio.ScanLines, over every
// split of a text file and collects lines and per-split errors.
func readAllSplits(t *testing.T, fs *dfs.FileSystem, path string) (lines []string, errs []error) {
	t.Helper()
	splits, err := splitsFor(fs, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range splits {
		err := readSplit(fs, sp, func(_, line string) error {
			lines = append(lines, line)
			return nil
		})
		if err != nil {
			errs = append(errs, err)
		}
	}
	return lines, errs
}

func TestOversizedLineIsAnErrorNotTruncation(t *testing.T) {
	// A record continuing more than maxOverrun bytes past its
	// split's end used to be emitted truncated, as if the buffer end
	// were EOF. It must be a "line too long" error instead, reported by
	// the split the record starts in.
	const chunk = 1 << 16
	fs := newReaderFS(t, chunk)
	// The line must outrun its split's read window: longer than one
	// chunk plus the full overrun allowance.
	huge := strings.Repeat("x", maxOverrun+2*chunk)
	content := "short-line\n" + huge + "\n" + "after\n"
	if err := fs.Create("in/f", []byte(content), ""); err != nil {
		t.Fatal(err)
	}
	lines, errs := readAllSplits(t, fs, "in/f")
	if len(errs) != 1 {
		t.Fatalf("got %d split errors, want exactly 1 (from the owning split): %v", len(errs), errs)
	}
	if !strings.Contains(errs[0].Error(), "overrun budget") {
		t.Fatalf("error = %v, want oversized-line error", errs[0])
	}
	// No split may have emitted a truncated piece of the huge line.
	for _, l := range lines {
		if strings.HasPrefix(l, "x") {
			t.Fatalf("truncated fragment of the oversized line was emitted (len %d)", len(l))
		}
	}
}

func TestLongLineWithinOverrunStillReads(t *testing.T) {
	// A record crossing many chunk boundaries but terminating within
	// maxOverrun of its split end is legal and must come back whole.
	fs := newReaderFS(t, 64)
	long := strings.Repeat("y", 5000) // spans ~78 chunks, well under the overrun
	content := "a\n" + long + "\nb\n"
	if err := fs.Create("in/f", []byte(content), ""); err != nil {
		t.Fatal(err)
	}
	lines, errs := readAllSplits(t, fs, "in/f")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	found := false
	for _, l := range lines {
		if l == long {
			found = true
		}
	}
	if !found {
		t.Fatal("long line not read back intact")
	}
}

func TestUnterminatedFinalLineAtEOFStillReads(t *testing.T) {
	// EOF without a trailing newline is not an oversized line: the
	// buffer is shorter than requested, so the tail is a real record.
	fs := newReaderFS(t, 8)
	content := "aaa\nbbbb\nccccc" // no trailing newline
	if err := fs.Create("in/f", []byte(content), ""); err != nil {
		t.Fatal(err)
	}
	lines, errs := readAllSplits(t, fs, "in/f")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(lines) != 3 || lines[len(lines)-1] != "ccccc" {
		t.Fatalf("lines = %q, want trailing ccccc intact", lines)
	}
}

// viewInputs is a text file (line lengths vary, some lines empty) and
// an RCIO file of as many records, both spanning many 256-byte chunks.
func viewInputs() (text string, rcio []byte, records map[string]string) {
	var sb strings.Builder
	w := recordio.NewWriter()
	records = map[string]string{}
	for i := 0; i < 300; i++ {
		if i%50 == 7 {
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "line %d %s\n", i, strings.Repeat("x", i%17))
		k, v := fmt.Sprintf("k%03d", i), strings.Repeat("v", i%23)+strconv.Itoa(i)
		w.Add(k, v)
		records[k] = v
	}
	return sb.String(), w.Bytes(), records
}

// checkKeptInput asserts that what a mapper kept is, record for
// record, what viewInputs wrote: a text record is an empty key and a
// line of the file, each line kept as often as it was written, and an
// RCIO record is a key with the value stored under it, each key kept
// once.
func checkKeptInput(t *testing.T, text string, records map[string]string, kept []KV) {
	t.Helper()
	lines := map[string]int{}
	for _, l := range strings.Split(text, "\n") {
		if l != "" {
			lines[l]++
		}
	}
	seen := map[string]bool{}
	for _, kv := range kept {
		if kv.Key == "" {
			if lines[kv.Value] == 0 {
				t.Fatalf("text line kept as %q: not a line of the file, or kept more often than written", kv.Value)
			}
			lines[kv.Value]--
			continue
		}
		if want, ok := records[kv.Key]; !ok || kv.Value != want || seen[kv.Key] {
			t.Fatalf("record (%q, %q) kept: written as %q (found %v), or kept twice", kv.Key, kv.Value, want, ok)
		}
		seen[kv.Key] = true
	}
	for l, n := range lines {
		if n != 0 {
			t.Fatalf("text line %q kept %d times too few", l, n)
		}
	}
	if len(seen) != len(records) {
		t.Fatalf("kept %d RCIO records, want %d", len(seen), len(records))
	}
}

// TestMapInputOutlivesTheRecord: a mapper's input keys and values are
// views of the split's buffer, never written again, so a mapper may
// keep them. A text record's key is empty. One that keeps every key and value until the job returns
// finds them all as written, for text and RCIO input, map-only and
// with a reducer, in-process and on storeExecutor.
func TestMapInputOutlivesTheRecord(t *testing.T) {
	text, rcio, records := viewInputs()
	for _, viaStore := range []bool{false, true} {
		for _, mapOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("store=%v/mapOnly=%v", viaStore, mapOnly), func(t *testing.T) {
				cl, err := cluster.NewUniform(4, 2, 2)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := dfs.New(cl, dfs.Config{ChunkSize: 256, Replication: 3, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				var opts Options
				if viaStore {
					opts.Executor = storeExecutor{fs}
				}
				e := NewEngine(cl, fs, opts)
				if err := fs.Create("in/text", []byte(text), ""); err != nil {
					t.Fatal(err)
				}
				if err := fs.Create("in/rcio", rcio, ""); err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var kept []KV
				job := strJob{
					Name:       "keep-input",
					Kind:       kindShuffleTest,
					InputPaths: []string{"in/text", "in/rcio"},
					OutputPath: "out",
					Mapper: func() strMapper {
						return strMapFunc(func(_ *TaskContext, k, v string, emit strEmit) error {
							mu.Lock()
							kept = append(kept, KV{k, v})
							mu.Unlock()
							emit(k, v)
							return nil
						})
					},
					NumReducers: 2,
				}
				if !mapOnly {
					job.Reducer = func() strReducer { return joinReducer{} }
				}
				if _, err := e.Run(build(job)); err != nil {
					t.Fatal(err)
				}
				checkKeptInput(t, text, records, kept)
			})
		}
	}
}
