package mapreduce

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// FuzzJobWireMaterialize throws arbitrary bytes at the worker's side of
// job shipping: whatever gob decodes into a JobWire must materialize
// into a runnable job or fail with an error, never panic. A job it does
// build runs the declared kind's code and keeps the wire's identity.
func FuzzJobWireMaterialize(f *testing.F) {
	for _, w := range []JobWire{
		{Name: "wc", Kind: kindShuffleTest, NumReducers: 3, Conf: map[string]string{"k": "v"}},
		{Name: "wc", Kind: kindShuffleTest, HasCombiner: true, Cache: map[string][]byte{"c": {1, 2}}},
		{Name: "wc", Kind: "no-such-kind", MaxShuffleBytes: 1 << 20, CompressSpill: true},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w JobWire
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
			return
		}
		job, err := w.Materialize()
		if err != nil {
			return
		}
		if job.Name != w.Name || job.Kind != w.Kind || job.newMapper == nil || (job.newCombiner != nil) != w.HasCombiner {
			t.Fatalf("materialized %+v from %+v", job, w)
		}
	})
}
