package recordio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// kv is a local pair for test expectations (the package itself deals
// in raw byte streams).
type kv struct{ Key, Value string }

// readAll drains a FileReader, failing the test on any stream error.
func readAll(t *testing.T, data []byte) []kv {
	t.Helper()
	r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
	if err != nil {
		t.Fatal(err)
	}
	var kvs []kv
	for {
		k, v, ok, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", len(kvs), err)
		}
		if !ok {
			return kvs
		}
		kvs = append(kvs, kv{Key: k, Value: v})
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	w := NewCompressedWriter(0)
	want := make([]kv, 500)
	for i := range want {
		want[i] = kv{Key: fmt.Sprintf("key-%04d", i), Value: strings.Repeat("v", i%37)}
		w.Add(want[i].Key, want[i].Value)
	}
	data := w.Bytes()
	got := readAll(t, data)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCompressedBlockBoundaries pins the block framing edges: a record
// exactly filling a block, records landing just before and after the
// flush point, and a record far larger than the block size (which must
// get a block of its own rather than straddle).
func TestCompressedBlockBoundaries(t *testing.T) {
	const block = 64
	w := NewCompressedWriter(block)
	var want []kv
	add := func(k, v string) {
		want = append(want, kv{Key: k, Value: v})
		w.Add(k, v)
	}
	// Frame overhead is 2 uvarint bytes for these sizes: 2+1+61 = 64
	// lands the flush exactly at the block size.
	add("k", strings.Repeat("a", 61))
	add("edge", "just-after-a-flush")
	add("big", strings.Repeat("B", 10*block)) // record ≫ block size
	add("tail", "after-the-giant")
	got := readAll(t, w.Bytes())
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: key %q (%d value bytes), want key %q (%d value bytes)",
				i, got[i].Key, len(got[i].Value), want[i].Key, len(want[i].Value))
		}
	}
}

func TestCompressedEmptyFileIsCleanEOF(t *testing.T) {
	if got := readAll(t, NewCompressedWriter(0).Bytes()); len(got) != 0 {
		t.Fatalf("empty file yielded %d records", len(got))
	}
}

// TestFileReaderPlainAcrossFetchWindows streams a v1 file bigger than
// one fetch window, so records and sync markers straddle window
// boundaries inside ensure().
func TestFileReaderPlainAcrossFetchWindows(t *testing.T) {
	w := NewWriter()
	val := strings.Repeat("x", 1000)
	n := (fetchWindow/1000 + 50) * 2 // ~2.1 windows of data
	for i := 0; i < n; i++ {
		w.Add(fmt.Sprintf("key-%06d", i), val)
	}
	data := w.Bytes()
	if len(data) <= fetchWindow {
		t.Fatalf("fixture too small: %d bytes", len(data))
	}
	got := readAll(t, data)
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i, kv := range got {
		if kv.Key != fmt.Sprintf("key-%06d", i) || kv.Value != val {
			t.Fatalf("record %d mangled: key %q, %d value bytes", i, kv.Key, len(kv.Value))
		}
	}
}

// TestFileReaderTruncationIsError chops bytes off the tail of both
// formats: the stream must end in an explicit error, never a clean EOF
// that silently drops records.
func TestFileReaderTruncationIsError(t *testing.T) {
	files := map[string][]byte{}
	{
		w := NewWriter()
		for i := 0; i < 200; i++ {
			w.Add(fmt.Sprintf("key-%04d", i), strings.Repeat("v", 40))
		}
		files["v1"] = w.Bytes()
	}
	{
		w := NewCompressedWriter(256)
		for i := 0; i < 200; i++ {
			w.Add(fmt.Sprintf("key-%04d", i), strings.Repeat("v", 40))
		}
		files["v2"] = w.Bytes()
	}
	for name, full := range files {
		for _, cut := range []int{1, 7, 33} {
			data := full[:len(full)-cut]
			r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
			if err != nil {
				t.Fatalf("%s cut %d: open: %v", name, cut, err)
			}
			var streamErr error
			reads := 0
			for {
				_, _, ok, err := r.Next()
				if err != nil {
					streamErr = err
					break
				}
				if !ok {
					break
				}
				reads++
			}
			if streamErr == nil {
				t.Fatalf("%s cut %d: truncated file read %d records to a clean EOF", name, cut, reads)
			}
		}
	}
}

func TestFileReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewFileReader(3, BytesFetcher([]byte("RC"))); err == nil {
		t.Fatal("short file accepted")
	}
	if _, err := NewFileReader(10, BytesFetcher([]byte("GARBAGE###"))); err == nil {
		t.Fatal("unknown header accepted")
	}
	if _, err := NewFileReader(5, BytesFetcher([]byte{'R', 'C', 'I', 'O', 9})); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestFileReaderMatchesSliceReader cross-checks the streaming reader
// against the established in-memory v1 reader on the same bytes.
func TestFileReaderMatchesSliceReader(t *testing.T) {
	w := NewWriter()
	for i := 0; i < 1000; i++ {
		w.Add(fmt.Sprintf("k%05d", i), fmt.Sprintf("value-%d", i*i))
	}
	data := w.Bytes()
	var want []kv
	if err := ScanAll(data, func(k, v string) error {
		want = append(want, kv{Key: k, Value: v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, data)
	if len(got) != len(want) {
		t.Fatalf("streaming read %d records, slice read %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: streaming %v, slice %v", i, got[i], want[i])
		}
	}
}

// TestFileReaderViewsStayValid reads both formats through NextBytes
// across many fetch windows and blocks, keeps every view, and compares
// them all at the end: what the reader has handed out it never
// rewrites.
func TestFileReaderViewsStayValid(t *testing.T) {
	plain, comp := NewWriter(), NewCompressedWriter(512)
	var want []kv
	for i := 0; i < 40000; i++ {
		r := kv{Key: fmt.Sprintf("key-%06d", i), Value: strings.Repeat("v", i%29)}
		want = append(want, r)
		plain.AddBytes([]byte(r.Key), []byte(r.Value))
		comp.AddBytes([]byte(r.Key), []byte(r.Value))
	}
	for name, data := range map[string][]byte{"v1": plain.Bytes(), "v2": comp.Bytes()} {
		if name == "v1" && len(data) < 3*fetchWindow {
			t.Fatalf("fixture of %d bytes does not span several fetch windows", len(data))
		}
		r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
		if err != nil {
			t.Fatal(err)
		}
		var keys, values [][]byte
		for {
			k, v, ok, err := r.NextBytes()
			if err != nil {
				t.Fatalf("%s: record %d: %v", name, len(keys), err)
			}
			if !ok {
				break
			}
			keys, values = append(keys, k), append(values, v)
		}
		if len(keys) != len(want) {
			t.Fatalf("%s: read %d records, want %d", name, len(keys), len(want))
		}
		for i, w := range want {
			if string(keys[i]) != w.Key || string(values[i]) != w.Value {
				t.Fatalf("%s: record %d reads (%q, %q) after the file was drained, want %v", name, i, keys[i], values[i], w)
			}
		}
	}
}

// TestCompressedWriterReuseIsByteIdentical: compressors are recycled
// across blocks and files, and what a recycled one writes must not
// depend on what it wrote before — run-file sizes are job counters.
func TestCompressedWriterReuseIsByteIdentical(t *testing.T) {
	file := func(seed, n int) []byte {
		w := NewCompressedWriter(256)
		for i := 0; i < n; i++ {
			w.Add(fmt.Sprintf("key-%d-%04d", seed, i), strings.Repeat(string(rune('a'+seed)), i%41))
		}
		return w.Bytes()
	}
	first := file(1, 300)
	for i := 0; i < 5; i++ {
		file(2+i, 10+100*i) // other contents through the pooled compressor
		if again := file(1, 300); !bytes.Equal(again, first) {
			t.Fatalf("round %d: the same records compressed to different bytes", i)
		}
	}
}

// TestFileReaderRefusesImpossibleInflation: a block header claiming
// more raw bytes than DEFLATE could ever pack into the block is
// rejected before anything of that size is allocated.
func TestFileReaderRefusesImpossibleInflation(t *testing.T) {
	data := append([]byte(nil), compressedHeader[:]...)
	data = appendUvarint(data, maxFrameLen) // rawLen: 64 MiB
	data = appendUvarint(data, 4)           // compLen
	data = append(data, 1, 2, 3, 4)
	r, err := NewFileReader(int64(len(data)), BytesFetcher(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "corrupt block header") {
		t.Fatalf("err = %v, want a corrupt block header", err)
	}
}
