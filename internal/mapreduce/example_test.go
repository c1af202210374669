package mapreduce_test

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/recordio"
)

// wordCount is the word count's declaration: text lines in, (word, 1)
// pairs through the shuffle, one (word, count) record per word out.
var wordCount = mapreduce.Declare(mapreduce.TypedJob[string, string, string, int64, string, int64]{
	Kind: "example/wordcount",
	Mapper: func() mapreduce.TypedMapper[string, string, string, int64] {
		return mapreduce.TypedMapFunc[string, string, string, int64](
			func(_ *mapreduce.TaskContext, _, line string, emit mapreduce.TypedEmit[string, int64]) error {
				for _, w := range strings.Fields(line) {
					emit(w, 1)
				}
				return nil
			})
	},
	Reducer: func() mapreduce.TypedReducer[string, int64, string, int64] {
		return mapreduce.TypedReduceFunc[string, int64, string, int64](
			func(_ *mapreduce.TaskContext, word string, counts []int64, emit mapreduce.TypedEmit[string, int64]) error {
				var n int64
				for _, c := range counts {
					n += c
				}
				emit(word, n)
				return nil
			})
	},
	InputKey:    recordio.RawString{},
	InputValue:  recordio.RawString{},
	MapKey:      recordio.RawString{},
	MapValue:    recordio.Int64{},
	OutputKey:   recordio.RawString{},
	OutputValue: recordio.Int64{},
})

// Example runs the canonical word count on a 4-node simulated cluster:
// the mapper tokenizes lines into (word, 1) pairs and the reducer sums
// each word's counts; the driver reads the counts back typed.
func Example() {
	c, err := cluster.NewUniform(4, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	fs, err := dfs.New(c, dfs.Config{ChunkSize: 64, Replication: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	engine := mapreduce.NewEngine(c, fs, mapreduce.Options{})

	input := "the quick brown fox\njumps over the lazy dog\nthe end\n"
	if err := fs.Create("in/text", []byte(input), ""); err != nil {
		log.Fatal(err)
	}

	job := wordCount // a copy: the declared template is never mutated
	job.Name, job.InputPaths, job.OutputPath = "wordcount", []string{"in/text"}, "out"
	if _, err := engine.Run(job.Build()); err != nil {
		log.Fatal(err)
	}

	counts := map[string]int64{}
	err = mapreduce.ReadOutput(engine, "out", recordio.RawString{}, recordio.Int64{}, func(word string, n int64) error {
		counts[word] = n
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fox=%d\nthe=%d\n", counts["fox"], counts["the"])
	// Output:
	// fox=1
	// the=3
}
