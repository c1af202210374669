// Package repro's root benchmarks map one-to-one onto the paper's
// tables and figures (see DESIGN.md's experiment index). They run on a
// scaled-down GeoLife-like corpus; cmd/benchtab regenerates the actual
// paper tables, while these benches track the performance of each
// reproduced pipeline under `go test -bench`.
package repro

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/privacy"
	"repro/internal/recordio"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// benchCorpus is a paper178-shaped corpus at 1/32 scale (~64k traces),
// generated once and shared read-only across benchmarks.
var (
	corpusOnce  sync.Once
	benchCorpus *trace.Dataset
	benchTruth  *geolife.GroundTruth
)

func corpus(b *testing.B) (*trace.Dataset, *geolife.GroundTruth) {
	b.Helper()
	corpusOnce.Do(func() {
		benchCorpus, benchTruth = geolife.GenerateWithTruth(geolife.Scaled(1, 32))
	})
	return benchCorpus, benchTruth
}

// uniq generates process-unique DFS directory names. The counter is
// atomic so benchmarks stay race-free under b.RunParallel or -race.
var uniqCounter atomic.Int64

func uniq(prefix string) string {
	return fmt.Sprintf("%s-%04d", prefix, uniqCounter.Add(1))
}

// reportRecordsPerSec standardizes throughput reporting across the
// end-to-end pipeline benchmarks: input records processed per wall
// second, the same unit as the repo benchmark's records_per_s (bench/).
// records is the per-iteration input volume.
func reportRecordsPerSec(b *testing.B, records int64) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(records)*float64(b.N)/secs, "records/sec")
	}
}

// newBenchToolkit deploys the standard 7-node testbed with the given
// chunk size and uploads the shared corpus as two large files.
func newBenchToolkit(b *testing.B, chunkSize int64) (*core.Toolkit, *trace.Dataset) {
	b.Helper()
	ds, _ := corpus(b)
	tk, err := core.NewToolkit(core.ClusterConfig{
		Nodes: 7, Racks: 2, SlotsPerNode: 4, ChunkSize: chunkSize, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := geolife.WriteRecordsConcat(tk.FS(), "data", ds, 2); err != nil {
		b.Fatal(err)
	}
	return tk, ds
}

// BenchmarkTableI_Sampling measures the §V down-sampling job at the
// three window sizes of Table I, reporting the collapse ratio.
func BenchmarkTableI_Sampling(b *testing.B) {
	for _, window := range []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute} {
		b.Run(window.String(), func(b *testing.B) {
			tk, ds := newBenchToolkit(b, 2<<20)
			b.ResetTimer()
			var kept int64
			for i := 0; i < b.N; i++ {
				res, err := tk.Sample("data", uniq("out"), window, gepeto.SampleUpperLimit)
				if err != nil {
					b.Fatal(err)
				}
				kept = res.Counters.Value("task", "map_output_records")
			}
			b.ReportMetric(float64(ds.NumTraces())/float64(kept), "collapse-ratio")
			reportRecordsPerSec(b, int64(ds.NumTraces()))
		})
	}
}

// BenchmarkFig2_SamplingStrategies compares the two representative-
// selection techniques (Figs. 2-3); they must cost the same.
func BenchmarkFig2_SamplingStrategies(b *testing.B) {
	ds, _ := corpus(b)
	for _, tech := range []gepeto.SamplingTechnique{gepeto.SampleUpperLimit, gepeto.SampleMiddle} {
		b.Run(tech.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gepeto.SampleSequential(ds, time.Minute, tech)
			}
		})
	}
}

// BenchmarkSamplingJobScaling reproduces the §V scaling observation:
// the same sampling job on a 7-node vs a 31-node deployment (the
// paper's sampling experiment used 31 Parapluie nodes, 124 mappers).
func BenchmarkSamplingJobScaling(b *testing.B) {
	for _, nodes := range []int{7, 31} {
		b.Run(fmt.Sprintf("nodes-%d", nodes), func(b *testing.B) {
			ds, _ := corpus(b)
			tk, err := core.NewToolkit(core.ClusterConfig{
				Nodes: nodes, Racks: 4, SlotsPerNode: 4, ChunkSize: 256 << 10, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := geolife.WriteRecordsConcat(tk.FS(), "data", ds, 8); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tk.Sample("data", uniq("out"), 10*time.Second, gepeto.SampleUpperLimit); err != nil {
					b.Fatal(err)
				}
			}
			reportRecordsPerSec(b, int64(ds.NumTraces()))
		})
	}
}

// BenchmarkTableIII_KMeans measures one k-means iteration per Table
// III scenario: {dataset size} x {distance} x {chunk size}.
func BenchmarkTableIII_KMeans(b *testing.B) {
	for _, size := range []struct {
		name  string
		scale int
	}{{"66MB", 62}, {"128MB", 32}} { // 1.05M/32812 and 2.03M/63552 at 1/32 of paper scale
		for _, metric := range []geo.Metric{geo.MetricSquaredEuclidean, geo.MetricHaversine} {
			for _, chunk := range []int64{2 << 20, 1 << 20} { // 64MB and 32MB at 1/32 scale
				name := fmt.Sprintf("%s/%s/chunk-%dKB", size.name, metric, chunk>>10)
				b.Run(name, func(b *testing.B) {
					ds := geolife.Generate(geolife.Scaled(1, size.scale))
					tk, err := core.NewToolkit(core.ClusterConfig{
						Nodes: 7, Racks: 2, SlotsPerNode: 4, ChunkSize: chunk, Seed: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := geolife.WriteRecordsConcat(tk.FS(), "data", ds, 2); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// One iteration: MaxIter=1 runs exactly one MapReduce job.
						if _, err := gepeto.KMeansMR(tk.Engine(), []string{"data"}, uniq("w"), gepeto.KMeansOptions{
							K: 11, Distance: metric, MaxIter: 1, Seed: 1,
						}); err != nil {
							b.Fatal(err)
						}
					}
					reportRecordsPerSec(b, int64(ds.NumTraces()))
				})
			}
		}
	}
}

// BenchmarkKMeansCombinerAblation isolates the §VI combiner
// optimisation: identical iterations with and without map-side
// partial sums, reporting shuffled bytes.
func BenchmarkKMeansCombinerAblation(b *testing.B) {
	for _, useComb := range []bool{false, true} {
		name := "no-combiner"
		if useComb {
			name = "with-combiner"
		}
		b.Run(name, func(b *testing.B) {
			tk, ds := newBenchToolkit(b, 2<<20)
			b.ResetTimer()
			var shuffle int64
			for i := 0; i < b.N; i++ {
				res, err := gepeto.KMeansMR(tk.Engine(), []string{"data"}, uniq("w"), gepeto.KMeansOptions{
					K: 11, Distance: geo.MetricSquaredEuclidean, MaxIter: 1, Seed: 1, UseCombiner: useComb,
				})
				if err != nil {
					b.Fatal(err)
				}
				shuffle = res.IterationResults[0].Counters.Value("shuffle", "shuffle_bytes")
			}
			b.ReportMetric(float64(shuffle), "shuffle-bytes")
			reportRecordsPerSec(b, int64(ds.NumTraces()))
		})
	}
}

// BenchmarkFig4_KMeansWorkflow times a full convergence run (the
// Fig. 4 loop: one MapReduce job per iteration until stable).
func BenchmarkFig4_KMeansWorkflow(b *testing.B) {
	tk, ds := newBenchToolkit(b, 2<<20)
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := gepeto.KMeansMR(tk.Engine(), []string{"data"}, uniq("w"), gepeto.KMeansOptions{
			K: 11, Distance: geo.MetricSquaredEuclidean, MaxIter: 25, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
	reportRecordsPerSec(b, int64(ds.NumTraces()))
}

// BenchmarkFig5_Preprocess measures the two pipelined map-only jobs of
// DJ-Cluster's preprocessing phase on the 1-min-sampled corpus.
func BenchmarkFig5_Preprocess(b *testing.B) {
	tk, _ := newBenchToolkit(b, 1<<20)
	sres, err := tk.Sample("data", "sampled", time.Minute, gepeto.SampleUpperLimit)
	if err != nil {
		b.Fatal(err)
	}
	sampled := sres.Counters.Value("task", "map_output_records")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, s2 := uniq("f1"), uniq("f2")
		if _, err := tk.Engine().RunPipeline(
			gepeto.SpeedFilterJob("speed", []string{"sampled"}, s1, 2.0),
			gepeto.DedupJob("dedup", []string{s1}, s2, 1.0),
		); err != nil {
			b.Fatal(err)
		}
	}
	reportRecordsPerSec(b, sampled)
}

// BenchmarkTableIV_Preprocess measures preprocessing on each sampled
// dataset of Table IV, reporting the keep rate of the speed filter.
func BenchmarkTableIV_Preprocess(b *testing.B) {
	for _, window := range []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute} {
		b.Run(window.String(), func(b *testing.B) {
			tk, _ := newBenchToolkit(b, 1<<20)
			sres, err := tk.Sample("data", "sampled", window, gepeto.SampleUpperLimit)
			if err != nil {
				b.Fatal(err)
			}
			sampled := sres.Counters.Value("task", "map_output_records")
			b.ResetTimer()
			var keep float64
			for i := 0; i < b.N; i++ {
				s1 := uniq("f1")
				res, err := tk.Engine().Run(gepeto.SpeedFilterJob("speed", []string{"sampled"}, s1, 2.0))
				if err != nil {
					b.Fatal(err)
				}
				in := res.Counters.Value("task", "map_input_records")
				out := res.Counters.Value("task", "map_output_records")
				keep = float64(out) / float64(in)
			}
			b.ReportMetric(keep*100, "keep-%")
			reportRecordsPerSec(b, sampled)
		})
	}
}

// BenchmarkDJClusterPhases times the complete DJ-Cluster pipeline
// (Algs. 4-5 plus preprocessing and R-tree build).
func BenchmarkDJClusterPhases(b *testing.B) {
	tk, _ := newBenchToolkit(b, 1<<20)
	sres, err := tk.Sample("data", "sampled", time.Minute, gepeto.SampleUpperLimit)
	if err != nil {
		b.Fatal(err)
	}
	sampled := sres.Counters.Value("task", "map_output_records")
	b.ResetTimer()
	var clusters int
	for i := 0; i < b.N; i++ {
		res, err := gepeto.DJClusterMR(tk.Engine(), []string{"sampled"}, uniq("dj"), gepeto.DefaultDJClusterOptions())
		if err != nil {
			b.Fatal(err)
		}
		clusters = len(res.Clusters)
	}
	b.ReportMetric(float64(clusters), "clusters")
	reportRecordsPerSec(b, sampled)
}

// BenchmarkFig6_RTreeBuild measures the three-phase MapReduce R-tree
// construction per curve, against the sequential bulk-load baseline.
func BenchmarkFig6_RTreeBuild(b *testing.B) {
	ds, _ := corpus(b)
	for _, curve := range []string{"zorder", "hilbert"} {
		b.Run("mapreduce-"+curve, func(b *testing.B) {
			tk, _ := newBenchToolkit(b, 1<<20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := gepeto.BuildRTreeMR(tk.Engine(), []string{"data"}, uniq("rt"),
					gepeto.RTreeBuildOptions{Curve: curve, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			reportRecordsPerSec(b, int64(ds.NumTraces()))
		})
	}
	b.Run("sequential-bulkload", func(b *testing.B) {
		entries := make([]rtree.Entry, 0, ds.NumTraces())
		for _, tr := range ds.Trails {
			for _, t := range tr.Traces {
				entries = append(entries, rtree.Entry{ID: gepeto.TraceID(t), Point: t.Point})
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rtree.BulkLoad(entries, rtree.DefaultMaxEntries)
		}
		reportRecordsPerSec(b, int64(len(entries)))
	})
}

// BenchmarkDeploymentOverhead measures cluster bring-up plus dataset
// upload and chunk replication (the paper's ~25 s HDFS deployment
// overhead, §VI).
func BenchmarkDeploymentOverhead(b *testing.B) {
	ds, _ := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := core.NewToolkit(core.ClusterConfig{
			Nodes: 7, Racks: 2, SlotsPerNode: 4, ChunkSize: 2 << 20, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := geolife.WriteRecordsConcat(tk.FS(), "data", ds, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeqVsMR_Sampling compares the sequential baseline against
// the MapReduce job for down-sampling (the motivation of §II: single-
// machine analysis of large datasets is slow, so distribute it).
func BenchmarkSeqVsMR_Sampling(b *testing.B) {
	ds, _ := corpus(b)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gepeto.SampleSequential(ds, time.Minute, gepeto.SampleUpperLimit)
		}
		reportRecordsPerSec(b, int64(ds.NumTraces()))
	})
	b.Run("mapreduce", func(b *testing.B) {
		tk, _ := newBenchToolkit(b, 1<<20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tk.Sample("data", uniq("out"), time.Minute, gepeto.SampleUpperLimit); err != nil {
				b.Fatal(err)
			}
		}
		reportRecordsPerSec(b, int64(ds.NumTraces()))
	})
}

// BenchmarkMMCAttack measures the §VIII extension: building MMC models
// and running the linking attack across 8 users.
func BenchmarkMMCAttack(b *testing.B) {
	ds, truth := corpus(b)
	users := len(ds.Trails)
	if users > 8 {
		users = 8
	}
	var known, anon []*privacy.MMC
	truthMap := map[string]string{}
	b.Run("build-models", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			known, anon = known[:0], anon[:0]
			for u := 0; u < users; u++ {
				tr := &ds.Trails[u]
				half := len(tr.Traces) / 2
				k, err := privacy.BuildMMC(&trace.Trail{User: tr.User, Traces: tr.Traces[:half]}, truth.POIs(tr.User), 50)
				if err != nil {
					b.Fatal(err)
				}
				a, err := privacy.BuildMMC(&trace.Trail{User: "anon-" + tr.User, Traces: tr.Traces[half:]}, truth.POIs(tr.User), 50)
				if err != nil {
					b.Fatal(err)
				}
				known = append(known, k)
				anon = append(anon, a)
				truthMap[a.User] = tr.User
			}
		}
	})
	b.Run("link", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			res := privacy.LinkByMMC(known, anon, truthMap)
			acc = res.Accuracy()
		}
		b.ReportMetric(acc*100, "accuracy-%")
	})
}

// BenchmarkPOIAttackEndToEnd measures the full inference attack of the
// examples: sample, preprocess, cluster, label (sequential pipeline).
func BenchmarkPOIAttackEndToEnd(b *testing.B) {
	ds, truth := corpus(b)
	b.ResetTimer()
	var recall float64
	for i := 0; i < b.N; i++ {
		sampled := gepeto.SampleSequential(ds, time.Minute, gepeto.SampleUpperLimit)
		_, pre := gepeto.PreprocessSequential(sampled, 2.0, 1.0)
		res := gepeto.DJClusterSequential(pre, gepeto.DefaultDJClusterOptions())
		pois, err := privacy.ExtractPOIs(res, privacy.TraceTimes(pre))
		if err != nil {
			b.Fatal(err)
		}
		recall = privacy.EvaluatePOIAttack(pois, truth, 50).POIRecall
	}
	b.ReportMetric(recall*100, "poi-recall-%")
	reportRecordsPerSec(b, int64(ds.NumTraces()))
}

// BenchmarkSocialLinkDiscovery measures the §II co-location attack as
// two chained MapReduce jobs over the shared corpus.
func BenchmarkSocialLinkDiscovery(b *testing.B) {
	tk, ds := newBenchToolkit(b, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := privacy.DiscoverSocialLinksMR(tk.Engine(), []string{"data"}, uniq("soc"), privacy.SocialOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	reportRecordsPerSec(b, int64(ds.NumTraces()))
}

// BenchmarkMMCPrediction measures next-place prediction evaluation
// (§VIII) over the corpus users.
func BenchmarkMMCPrediction(b *testing.B) {
	raw, truth := corpus(b)
	_, ds := gepeto.PreprocessSequential(raw, 2.0, 1.0)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		var sum float64
		n := 0
		for j := range ds.Trails {
			tr := &ds.Trails[j]
			half := len(tr.Traces) / 2
			m, err := privacy.BuildMMC(&trace.Trail{User: tr.User, Traces: tr.Traces[:half]}, truth.POIs(tr.User), 50)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := privacy.EvaluatePrediction(m, &trace.Trail{User: tr.User, Traces: tr.Traces[half:]}, 50)
			if err != nil {
				b.Fatal(err)
			}
			sum += rep.Accuracy()
			n++
		}
		acc = sum / float64(n)
	}
	b.ReportMetric(acc*100, "accuracy-%")
}

// shuffleBenchRuns builds the per-partition map output a shuffle sees:
// maps tasks each emit recs records keyed by trace id (skewed so keys
// collide across runs), hash-partitioned over reducers. Returns both
// the raw emission-order runs (the seed shuffle's input) and stable-
// sorted copies (the merge shuffle's input — map tasks sort their spill
// at commit time, so the sort cost lives in the map phase).
func shuffleBenchRuns(maps, recs, reducers int) (raw, sorted [][][]mapreduce.KV) {
	rng := rand.New(rand.NewSource(42))
	raw = make([][][]mapreduce.KV, reducers)
	for p := range raw {
		raw[p] = make([][]mapreduce.KV, maps)
	}
	for m := 0; m < maps; m++ {
		for r := 0; r < recs; r++ {
			k := fmt.Sprintf("trace-%04d", rng.Intn(3000))
			p := 0
			if reducers > 1 {
				p = mapreduce.HashPartition(k, reducers)
			}
			raw[p][m] = append(raw[p][m], mapreduce.KV{Key: k, Value: fmt.Sprintf("v%06d", m*recs+r)})
		}
	}
	sorted = make([][][]mapreduce.KV, reducers)
	for p := range raw {
		sorted[p] = make([][]mapreduce.KV, maps)
		for m := range raw[p] {
			run := append([]mapreduce.KV(nil), raw[p][m]...)
			sort.SliceStable(run, func(i, j int) bool { return run[i].Key < run[j].Key })
			sorted[p][m] = run
		}
	}
	return raw, sorted
}

// seedShufflePartition is the seed engine's shuffle kept as a baseline:
// concatenate a partition's unsorted runs in run order, then stable-
// sort the whole partition by key.
func seedShufflePartition(runs [][]mapreduce.KV) []mapreduce.KV {
	var all []mapreduce.KV
	for _, r := range runs {
		all = append(all, r...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	return all
}

// forEachPartition runs fn over every partition, in parallel when there
// is more than one — mirroring the engine's slot-bounded merge fan-out.
func forEachPartition(reducers int, fn func(p int)) {
	if reducers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < reducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	wg.Wait()
}

// BenchmarkShuffleMergeSorted measures the engine's current shuffle
// path: a k-way merge of the map tasks' pre-sorted spill runs, one
// merge per reduce partition (parallel across partitions). Compare
// against BenchmarkShuffleSeedConcatSort on the same data.
func BenchmarkShuffleMergeSorted(b *testing.B) {
	const maps, recs = 24, 8000
	for _, reducers := range []int{1, 8} {
		b.Run(fmt.Sprintf("reducers-%d", reducers), func(b *testing.B) {
			raw, sorted := shuffleBenchRuns(maps, recs, reducers)
			// The two shuffles must agree kv for kv before timing anything.
			for p := 0; p < reducers; p++ {
				want := seedShufflePartition(raw[p])
				got := mapreduce.MergeRuns(sorted[p])
				if len(got) != len(want) {
					b.Fatalf("partition %d: merge %d records, seed %d", p, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						b.Fatalf("partition %d record %d: merge %v, seed %v", p, i, got[i], want[i])
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				forEachPartition(reducers, func(p int) {
					mapreduce.MergeRuns(sorted[p])
				})
			}
			b.ReportMetric(float64(maps*recs), "records/op")
		})
	}
}

// BenchmarkShuffleSeedConcatSort measures the seed engine's shuffle on
// identical data: concatenate every partition's unsorted runs and
// stable-sort the whole partition (parallel across partitions, like the
// merge side, so the comparison isolates sort-vs-merge cost).
func BenchmarkShuffleSeedConcatSort(b *testing.B) {
	const maps, recs = 24, 8000
	for _, reducers := range []int{1, 8} {
		b.Run(fmt.Sprintf("reducers-%d", reducers), func(b *testing.B) {
			raw, _ := shuffleBenchRuns(maps, recs, reducers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				forEachPartition(reducers, func(p int) {
					seedShufflePartition(raw[p])
				})
			}
			b.ReportMetric(float64(maps*recs), "records/op")
		})
	}
}

// BenchmarkShuffleRecords measures the per-record shuffle cost of the
// two record encodings on identical logical data: "text" renders keys
// and values with fmt and re-parses them reduce-side (the legacy
// string-job path); "typed" encodes order-preserving recordio binary
// and decodes with the codecs (the typed-job path). Each iteration
// encodes the map runs, spill-sorts them, k-way merges, and decodes
// every merged value — the full record lifecycle across the shuffle.
// The typed variant must allocate less and run faster per record.
func BenchmarkShuffleRecords(b *testing.B) {
	const maps, recs = 8, 4000
	type codec struct {
		name   string
		encode func(id int64, lat, lon float64) mapreduce.KV
		decode func(kv mapreduce.KV) (float64, error)
	}
	for _, c := range []codec{
		{
			name: "text",
			encode: func(id int64, lat, lon float64) mapreduce.KV {
				return mapreduce.KV{
					Key:   fmt.Sprintf("%06d", id),
					Value: fmt.Sprintf("%.6f,%.6f,1", lat, lon),
				}
			},
			decode: func(kv mapreduce.KV) (float64, error) {
				parts := strings.Split(kv.Value, ",")
				if len(parts) != 3 {
					return 0, fmt.Errorf("bad value %q", kv.Value)
				}
				lat, err := strconv.ParseFloat(parts[0], 64)
				if err != nil {
					return 0, err
				}
				lon, err := strconv.ParseFloat(parts[1], 64)
				if err != nil {
					return 0, err
				}
				return lat + lon, nil
			},
		},
		{
			name: "typed",
			// Scratch buffers mirror the typed emit wrapper, which
			// reuses its encode buffers across records and allocates
			// only the final key/value strings.
			encode: func() func(id int64, lat, lon float64) mapreduce.KV {
				var kbuf, vbuf []byte
				return func(id int64, lat, lon float64) mapreduce.KV {
					kbuf = (recordio.Int64{}).Append(kbuf[:0], id)
					vbuf = (recordio.PointSumCodec{}).Append(vbuf[:0], recordio.PointSum{LatSum: lat, LonSum: lon, N: 1})
					return mapreduce.KV{Key: string(kbuf), Value: string(vbuf)}
				}
			}(),
			decode: func(kv mapreduce.KV) (float64, error) {
				ps, err := (recordio.PointSumCodec{}).Decode(kv.Value)
				if err != nil {
					return 0, err
				}
				return ps.LatSum + ps.LonSum, nil
			},
		},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(7))
				runs := make([][]mapreduce.KV, maps)
				for m := range runs {
					run := make([]mapreduce.KV, 0, recs)
					for r := 0; r < recs; r++ {
						id := int64(rng.Intn(3000))
						run = append(run, c.encode(id, 39+rng.Float64(), 116+rng.Float64()))
					}
					sort.SliceStable(run, func(i, j int) bool { return run[i].Key < run[j].Key })
					runs[m] = run
				}
				merged := mapreduce.MergeRuns(runs)
				if len(merged) != maps*recs {
					b.Fatalf("merge produced %d records, want %d", len(merged), maps*recs)
				}
				var sum float64
				for _, kv := range merged {
					v, err := c.decode(kv)
					if err != nil {
						b.Fatal(err)
					}
					sum += v
				}
				if sum == 0 {
					b.Fatal("decode produced no data")
				}
			}
			b.ReportMetric(float64(maps*recs), "records/op")
		})
	}
}

// BenchmarkShuffleJob runs a full multi-chunk, multi-reducer job end to
// end — one k-means iteration with the combiner disabled, so every map
// output record crosses the shuffle — the integration-level view of the
// map-side spill sort, parallel per-partition merge and streaming
// reduce.
func BenchmarkShuffleJob(b *testing.B) {
	tk, ds := newBenchToolkit(b, 256<<10)
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := gepeto.KMeansMR(tk.Engine(), []string{"data"}, uniq("w"), gepeto.KMeansOptions{
			K: 11, Distance: geo.MetricSquaredEuclidean, MaxIter: 1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.IterationResults[0].Counters.Value("shuffle", "shuffle_bytes")
	}
	b.ReportMetric(float64(bytes), "shuffle-bytes")
	reportRecordsPerSec(b, int64(ds.NumTraces()))
}

// BenchmarkEngine measures the observability layer's overhead on a
// representative job: the same down-sampling run with no event sinks
// attached versus the full trace collector + metrics pipeline a live
// status server would drive. The instrumented run must stay within a few
// percent of the bare one — events are constructed only behind a
// bus.Active() check.
func BenchmarkEngine(b *testing.B) {
	for _, v := range []struct {
		name string
		bus  func() *obs.Bus
	}{
		{"no-sink", func() *obs.Bus { return nil }},
		{"with-sink", func() *obs.Bus {
			return obs.NewBus(obstrace.NewCollector(nil, 0), obs.NewMetricsSink(obs.NewRegistry()))
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			ds, _ := corpus(b)
			tk, err := core.NewToolkit(core.ClusterConfig{
				Nodes: 7, Racks: 2, SlotsPerNode: 4, ChunkSize: 2 << 20, Seed: 1,
				Obs: v.bus(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := geolife.WriteRecordsConcat(tk.FS(), "data", ds, 2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tk.Sample("data", uniq("out"), time.Minute, gepeto.SampleUpperLimit); err != nil {
					b.Fatal(err)
				}
			}
			reportRecordsPerSec(b, int64(ds.NumTraces()))
		})
	}
}
