package rtree

import (
	"bytes"
	"testing"
)

// FuzzReadFrom feeds hostile bytes to the decoder: any input must give
// an error or a tree that passes CheckInvariants and survives its own
// round trip.
func FuzzReadFrom(f *testing.F) {
	for _, tr := range []*Tree{
		BulkLoad(nil, 4),
		BulkLoad(randEntries(1, 30), 4),
		BulkLoad(randEntries(20, 31), 4),
		Merge(4, BulkLoad(randEntries(30, 32), 4), BulkLoad(randEntries(3, 33), 4)),
	} {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := ReadFrom(bytes.NewReader(b))
		if err != nil {
			return
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("decoded tree fails its invariants: %v", err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("re-encoded tree does not decode: %v", err)
		}
		if back.Len() != tr.Len() || back.Height() != tr.Height() {
			t.Fatalf("re-encoded tree: %d/%d -> %d/%d", tr.Len(), tr.Height(), back.Len(), back.Height())
		}
	})
}
