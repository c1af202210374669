package rpc_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/recordio"
)

// keptInput is every input record the keep-input kinds' mapper was
// handed, across all worker goroutines, held until the test reads it.
var keptInput struct {
	sync.Mutex
	kvs [][2]string
}

func keepInputMapper() mapreduce.TypedMapper[string, string, string, string] {
	return mapreduce.TypedMapFunc[string, string, string, string](
		func(_ *mapreduce.TaskContext, k, v string, emit mapreduce.TypedEmit[string, string]) error {
			keptInput.Lock()
			keptInput.kvs = append(keptInput.kvs, [2]string{k, v})
			keptInput.Unlock()
			emit(k, v)
			return nil
		})
}

var (
	keepInputKind = mapreduce.Declare(upperShape{
		Kind:   "rpctest/keep-input",
		Mapper: keepInputMapper,
		Reducer: func() mapreduce.TypedReducer[string, string, string, string] {
			return mapreduce.TypedReduceFunc[string, string, string, string](
				func(_ *mapreduce.TaskContext, k string, vs []string, emit mapreduce.TypedEmit[string, string]) error {
					emit(k, strings.Join(vs, ","))
					return nil
				})
		},
		InputKey: recordio.RawString{}, InputValue: recordio.RawString{},
		MapKey: recordio.RawString{}, MapValue: recordio.RawString{},
		OutputKey: recordio.RawString{}, OutputValue: recordio.RawString{},
	})
	keepInputMapOnlyKind = mapreduce.Declare(upperShape{
		Kind:     "rpctest/keep-input-maponly",
		Mapper:   keepInputMapper,
		InputKey: recordio.RawString{}, InputValue: recordio.RawString{},
		MapKey: recordio.RawString{}, MapValue: recordio.RawString{},
	})
)

// TestMapInputOutlivesTheRecordOverRPC: map input reaches a worker's
// mapper as views of the split's buffer, and a mapper that keeps every
// key and value until the job returns finds them all as written — text
// lines with empty keys and RCIO records, map-only and with a reducer.
func TestMapInputOutlivesTheRecordOverRPC(t *testing.T) {
	var text strings.Builder
	w := recordio.NewWriter()
	records := map[string]string{}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&text, "line %d %s\n", i, strings.Repeat("x", i%17))
		k, v := fmt.Sprintf("k%03d", i), strings.Repeat("v", i%23)+strconv.Itoa(i)
		w.Add(k, v)
		records[k] = v
	}
	for _, tj := range []upperShape{keepInputKind, keepInputMapOnlyKind} {
		t.Run(tj.Kind, func(t *testing.T) {
			c, fs := newTopology(t, 256)
			if err := fs.Create("in/text", []byte(text.String()), ""); err != nil {
				t.Fatal(err)
			}
			if err := fs.Create("in/rcio", w.Bytes(), ""); err != nil {
				t.Fatal(err)
			}
			keptInput.Lock()
			keptInput.kvs = nil
			keptInput.Unlock()
			tj.Name, tj.InputPaths, tj.OutputPath, tj.NumReducers = "keep-input", []string{"in/text", "in/rcio"}, "out", 2
			if _, err := startBackend(t, c, fs, backendOpts{}).engine(c, fs).Run(tj.Build()); err != nil {
				t.Fatal(err)
			}
			keptInput.Lock()
			defer keptInput.Unlock()
			lines := map[string]int{}
			for _, l := range strings.Split(text.String(), "\n") {
				if l != "" {
					lines[l]++
				}
			}
			seen := map[string]bool{}
			for _, kv := range keptInput.kvs {
				k, v := kv[0], kv[1]
				if k == "" {
					if lines[v] == 0 {
						t.Fatalf("text line kept as %q: not a line of the file, or kept more often than written", v)
					}
					lines[v]--
					continue
				}
				if want, ok := records[k]; !ok || v != want || seen[k] {
					t.Fatalf("record (%q, %q) kept: written as %q (found %v), or kept twice", k, v, want, ok)
				}
				seen[k] = true
			}
			for l, n := range lines {
				if n != 0 {
					t.Fatalf("text line %q kept %d times too few", l, n)
				}
			}
			if len(seen) != len(records) {
				t.Fatalf("kept %d RCIO records, want %d", len(seen), len(records))
			}
		})
	}
}
