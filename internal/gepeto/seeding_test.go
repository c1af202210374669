package gepeto

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/recordio"
	"repro/internal/trace"
)

// decodeAllCenters is the seeding pass as it was before randomCenters
// learnt to skip records: read every file, decode every record, and
// offer each decoded point to an inline Algorithm R. It shares no walk,
// split or reservoir code with the package, so it can referee both.
func decodeAllCenters(t *testing.T, fs *dfs.FileSystem, dir string, k int, seed int64) []geo.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sample := make([]geo.Point, 0, k)
	n := 0
	offer := func(value string) error {
		tr, err := recordio.DecodeTraceValue(value)
		if err != nil {
			return err
		}
		n++
		if len(sample) < k {
			sample = append(sample, tr.Point)
		} else if j := rng.Intn(n); j < k {
			sample[j] = tr.Point
		}
		return nil
	}
	for _, f := range fs.List(dir) {
		data, err := fs.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		if recordio.IsRecordData(data) {
			err = recordio.ScanAll(data, func(_, v string) error { return offer(v) })
		} else {
			for _, line := range strings.Split(string(data), "\n") {
				if line = strings.TrimSuffix(line, "\r"); line != "" {
					if err = offer(line); err != nil {
						break
					}
				}
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	if len(sample) < k {
		t.Fatalf("oracle: %d records, k=%d", n, k)
	}
	return sample
}

// seedingFS is a small DFS for seeding tests and benchmarks.
func seedingFS(tb testing.TB) *dfs.FileSystem {
	tb.Helper()
	c, err := cluster.NewUniform(4, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 64 << 10, Replication: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// uploadText writes the traces to dir as that many text files, every
// line ended by eol except the very last; with blanks, an empty line
// (bare or "\r") follows every seventh record and ends each file.
func uploadText(tb testing.TB, fs *dfs.FileSystem, dir string, ts []trace.Trace, files int, eol string, blanks bool) {
	tb.Helper()
	per := (len(ts) + files - 1) / files
	for f := 0; f < files; f++ {
		var sb strings.Builder
		part := ts[min(f*per, len(ts)):min((f+1)*per, len(ts))]
		for i, tc := range part {
			sb.WriteString(tc.Record())
			if f < files-1 || i < len(part)-1 {
				sb.WriteString(eol)
			}
			if blanks && i%7 == 6 {
				sb.WriteString([]string{"\n", "\r\n"}[i%2])
			}
		}
		if blanks && f < files-1 {
			sb.WriteString("\n\n")
		}
		if err := fs.Create(fmt.Sprintf("%s/part-%03d.rec", dir, f), []byte(sb.String()), ""); err != nil {
			tb.Fatal(err)
		}
	}
}

// uploadRCIO writes the traces to dir as that many binary record files.
func uploadRCIO(tb testing.TB, fs *dfs.FileSystem, dir string, ts []trace.Trace, files int) {
	tb.Helper()
	per := (len(ts) + files - 1) / files
	for f := 0; f < files; f++ {
		w := recordio.NewWriter()
		for _, tc := range ts[min(f*per, len(ts)):min((f+1)*per, len(ts))] {
			w.AddBytes([]byte(TraceID(tc)), recordio.TraceValue{}.Append(nil, tc))
		}
		if err := fs.Create(fmt.Sprintf("%s/part-%03d.rec", dir, f), w.Bytes(), ""); err != nil {
			tb.Fatal(err)
		}
	}
}

func seedingTraces(n int) []trace.Trace {
	return geolife.Generate(geolife.Config{Users: 3, TotalTraces: n, Seed: 5}).AllTraces()
}

// TestRandomCentersMatchesDecodeAll pins the seeding to the pass it
// replaced, bit for bit: for every seed, k and upload shape the skipping
// walk takes the same points as decoding every record, and
// KMeansSequential's reservoir agrees with both.
func TestRandomCentersMatchesDecodeAll(t *testing.T) {
	ts := seedingTraces(900)
	fs := seedingFS(t)
	uploadText(t, fs, "lf", ts, 3, "\n", false)
	uploadText(t, fs, "crlf", ts, 3, "\r\n", false)
	uploadText(t, fs, "blank", ts, 3, "\n", true)
	uploadRCIO(t, fs, "rcio", ts, 3)
	for _, f := range fs.List("rcio") {
		data, err := fs.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		if blocks := len(data) / 4096; blocks < 3 {
			t.Fatalf("%s is %d bytes: want records across several 4 KiB sync blocks", f, len(data))
		}
	}
	for _, dir := range []string{"lf", "crlf", "blank", "rcio"} {
		var points []geo.Point
		if err := geolife.ForEachTrace(fs, []string{dir}, func(tc trace.Trace) error {
			points = append(points, tc.Point)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(points) != len(ts) {
			t.Fatalf("%s: %d points, want %d", dir, len(points), len(ts))
		}
		for _, k := range []int{1, 11, len(ts)} {
			for seed := int64(1); seed <= 20; seed++ {
				want := decodeAllCenters(t, fs, dir, k, seed)
				got, err := randomCenters(fs, []string{dir}, k, seed)
				if err != nil {
					t.Fatalf("%s k=%d seed=%d: %v", dir, k, seed, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d seed=%d: randomCenters differs from decoding every record", dir, k, seed)
				}
				// One Lloyd step from the same start gives the same answer,
				// so KMeansSequential started where the oracle did.
				opts := KMeansOptions{K: k, MaxIter: 1, Seed: seed}.withDefaults()
				seq := KMeansSequential(points, opts)
				ref := kmeansIterate(points, want, opts)
				if !reflect.DeepEqual(seq.Centroids, ref.Centroids) || !reflect.DeepEqual(seq.Sizes, ref.Sizes) {
					t.Fatalf("%s k=%d seed=%d: KMeansSequential seeded elsewhere", dir, k, seed)
				}
			}
		}
	}
}

// TestKMeansMRFailsOnUntakenBadRecord: the seeding pass decodes only
// the records its reservoir takes, so a malformed record it passes
// over must still fail the run, in iteration 0's map.
func TestKMeansMRFailsOnUntakenBadRecord(t *testing.T) {
	const k, seed = 4, 7
	h := newHarness(t, 1, 10, 64)
	ts := seedingTraces(600)
	// The bad record sits at the 1-based ordinal bad, which the seed's
	// reservoir passes over.
	bad := 0
	r := newReservoir(k, seed)
	for n := 1; n <= len(ts); n++ {
		if _, take := r.offer(); !take && n > len(ts)/2 {
			bad = n
			break
		}
	}
	if bad == 0 {
		t.Fatal("the reservoir took every record of the second half")
	}
	fs := h.e.FS()
	var text strings.Builder
	w := recordio.NewWriter()
	for i, tc := range ts {
		rec, val := tc.Record(), recordio.TraceValue{}.Append(nil, tc)
		if i+1 == bad {
			rec, val = "user-x\tnot,a,trace,record", []byte{0x01, 0xff}
		}
		text.WriteString(rec + "\n")
		w.AddBytes([]byte("k"), val)
	}
	if err := fs.Create("badtext/all.rec", []byte(text.String()), ""); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("badrcio/all.rec", w.Bytes(), ""); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"badtext", "badrcio"} {
		if _, err := randomCenters(fs, []string{dir}, k, seed); err != nil {
			t.Fatalf("%s: seeding decoded the untaken record: %v", dir, err)
		}
		_, err := KMeansMR(h.e, []string{dir}, "w-"+dir, KMeansOptions{K: k, MaxIter: 2, Seed: seed})
		if err == nil {
			t.Fatalf("%s: KMeansMR accepted a malformed record", dir)
		}
		if msg := err.Error(); !strings.Contains(msg, dir+"/all.rec") {
			t.Fatalf("%s: error does not name the file: %v", dir, err)
		}
	}
}

// TestKMeansMRSkipsBlankLines: an empty line in a text upload, bare or
// "\r", is not a record to the engine either, so KMeansMR on an upload
// with a blank line after every seventh record returns the blank-free
// upload's centroids.
func TestKMeansMRSkipsBlankLines(t *testing.T) {
	h := newHarness(t, 1, 10, 4)
	ts := seedingTraces(1500)
	fs := h.e.FS()
	uploadText(t, fs, "plain", ts, 3, "\n", false)
	uploadText(t, fs, "blank", ts, 3, "\n", true)
	if chunks, err := fs.Chunks("blank/part-000.rec"); err != nil || len(chunks) < 3 {
		t.Fatalf("want a file of several chunks: %d, %v", len(chunks), err)
	}
	var want *KMeansResult
	for _, dir := range []string{"plain", "blank"} {
		res, err := KMeansMR(h.e, []string{dir}, "w-"+dir, KMeansOptions{K: 5, MaxIter: 3, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if want == nil {
			want = res
		} else if !reflect.DeepEqual(res.Centroids, want.Centroids) || !reflect.DeepEqual(res.Sizes, want.Sizes) {
			t.Fatalf("%s: centroids %v sizes %v, blank-free upload %v %v", dir, res.Centroids, res.Sizes, want.Centroids, want.Sizes)
		}
	}
}

// BenchmarkRandomCenters times the seeding pass over a 300,000-record
// corpus, as text lines and as binary records.
func BenchmarkRandomCenters(b *testing.B) {
	ts := geolife.Generate(geolife.Config{Users: 8, TotalTraces: 300_000, Seed: 5}).AllTraces()
	fs := seedingFS(b)
	uploadText(b, fs, "text", ts, 2, "\n", false)
	uploadRCIO(b, fs, "rcio", ts, 2)
	for _, dir := range []string{"text", "rcio"} {
		b.Run(dir, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := randomCenters(fs, []string{dir}, 11, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
