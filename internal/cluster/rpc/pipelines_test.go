// Every pipeline on every executor: each GEPETO entry point runs once
// in-process and once on another executor over an identical topology,
// and everything observable must match — the returned answer, every
// part file any of its jobs committed (byte for byte), and each job's
// task counts and task, shuffle and user counters.
package rpc_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/privacy"
)

var pipelineCorpus = geolife.Config{Users: 3, TotalTraces: 9000, Seed: 5}

// pipelines lists every entry point that builds jobs, each returning a
// rendering of its answer. Between them they build every job family
// internal/gepeto and internal/privacy declare.
var pipelines = []struct {
	name string
	run  func(tk *core.Toolkit) (string, error)
}{
	{"sampling", func(tk *core.Toolkit) (string, error) {
		res, err := tk.Sample("input", "sampled", time.Minute, gepeto.SampleMiddle)
		return fmt.Sprint(res.MapTasks), err
	}},
	{"kmeans", func(tk *core.Toolkit) (string, error) { return runKMeans(tk, false) }},
	{"kmeans+combiner", func(tk *core.Toolkit) (string, error) { return runKMeans(tk, true) }},
	{"attack-poi", attackPOI},
	{"rtree", func(tk *core.Toolkit) (string, error) {
		tree, _, err := gepeto.BuildRTreeMR(tk.Engine(), []string{"input"}, "rtree-work", gepeto.RTreeBuildOptions{Curve: "hilbert", Seed: 3})
		if err != nil {
			return "", err
		}
		return fmt.Sprint(tree.Len(), tree.Height(), tree.All()), nil
	}},
	{"mmc-build", func(tk *core.Toolkit) (string, error) {
		_, truth := geolife.GenerateWithTruth(pipelineCorpus)
		pois := map[string][]geo.Point{}
		for user := range truth.Homes {
			pois[user] = truth.POIs(user)
		}
		chains, _, err := privacy.BuildMMCsMR(tk.Engine(), []string{"input"}, "mmcs", pois, 50)
		users := make([]string, 0, len(chains))
		for u := range chains {
			users = append(users, privacy.MarshalMMC(chains[u]))
		}
		sort.Strings(users)
		return strings.Join(users, "\n"), err
	}},
	{"gaussian-mask", func(tk *core.Toolkit) (string, error) {
		_, err := tk.SanitizeGaussian("input", "masked", 80, 9)
		return "", err
	}},
	{"cloaking", func(tk *core.Toolkit) (string, error) {
		_, err := tk.SanitizeCloaking("input", "cloaked", 200)
		return "", err
	}},
	{"social-links", func(tk *core.Toolkit) (string, error) {
		links, _, err := privacy.DiscoverSocialLinksMR(tk.Engine(), []string{"input"}, "social-work",
			privacy.SocialOptions{CellMeters: 2000, WindowSeconds: 3600, MinSharedWindows: 1})
		return fmt.Sprint(links), err
	}},
}

// attackPOI is the six-job pipeline, also run under the fault drills.
// The R-tree partition count is pinned: its default is the number of
// live slots, which a worker kill changes mid-pipeline.
func attackPOI(tk *core.Toolkit) (string, error) {
	opts := gepeto.DefaultDJClusterOptions()
	opts.RTree.Partitions = 5
	pois, res, err := tk.AttackPOI("input", time.Minute, opts)
	if err == nil && len(pois) == 0 {
		err = fmt.Errorf("the attack found no POIs: nothing to compare")
	}
	return fmt.Sprint(pois, res.Clusters, res.Noise), err
}

// runKMeans clusters under a spill budget small enough to trip, then
// labels every trace with the map-only assignment pass.
func runKMeans(tk *core.Toolkit, combiner bool) (string, error) {
	res, err := tk.KMeans("input", gepeto.KMeansOptions{
		K: 4, MaxIter: 3, UseCombiner: combiner, Seed: 1, MaxShuffleBytes: 4 << 10, CompressSpill: combiner,
	})
	if err != nil {
		return "", err
	}
	_, err = gepeto.KMeansAssignments(tk.Engine(), []string{"input"}, "assigned", res.Centroids, geo.MetricSquaredEuclidean)
	return fmt.Sprint(res.Centroids, res.Sizes, res.Iterations, res.Converged), err
}

// pipelineOutcome is everything one pipeline run left observable.
type pipelineOutcome struct {
	answer string
	// files holds every file in the DFS at each job's finish, keyed by
	// "<n>th finished job/<path>", so outputs a driver deletes later
	// (k-means iteration directories) are compared too.
	files map[string]string
	jobs  []jobOutcome
}

type jobOutcome struct {
	Job                   string
	MapTasks, ReduceTasks int
	Counters              map[string]map[string]int64
}

// runPipeline deploys a 3-node toolkit whose attempts run on the
// executor newExec returns (nil: in-process), uploads the corpus and
// runs the pipeline.
func runPipeline(t *testing.T, run func(*core.Toolkit) (string, error), newExec func(*cluster.Cluster, *dfs.FileSystem) mapreduce.Executor) pipelineOutcome {
	t.Helper()
	out := pipelineOutcome{files: map[string]string{}}
	var tk *core.Toolkit
	var mu sync.Mutex
	finished := 0
	snapshot := obs.SinkFunc(func(e obs.Event) {
		if e.Type != obs.JobFinished || e.Err != "" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		finished++
		for _, p := range tk.FS().List("") {
			if strings.HasPrefix(p, "_history/") {
				continue
			}
			data, err := tk.FS().ReadAll(p)
			if err != nil {
				t.Errorf("snapshot %s: %v", p, err)
			}
			out.files[fmt.Sprintf("%02d/%s", finished, p)] = string(data)
		}
	})
	tk, err := core.NewToolkit(core.ClusterConfig{
		Nodes: 3, Racks: 2, SlotsPerNode: 2, ChunkSize: 64 << 10, Replication: 3, Seed: 7,
		Obs: obs.NewBus(snapshot), Executor: newExec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Upload(geolife.Generate(pipelineCorpus), "input"); err != nil {
		t.Fatal(err)
	}
	if out.answer, err = run(tk); err != nil {
		t.Fatal(err)
	}
	recs, err := tk.History().List()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		// Placement (scheduler), DFS traffic and engine diagnostics
		// legitimately differ between executors, and so do the two
		// spill-file counters: an external executor writes every run to
		// a file, the in-process one only what the budget forces out.
		delete(r.Counters, mapreduce.CounterGroupScheduler)
		delete(r.Counters, mapreduce.CounterGroupDFS)
		delete(r.Counters, mapreduce.CounterGroupEngine)
		delete(r.Counters[mapreduce.CounterGroupShuffle], mapreduce.CounterShuffleSpillFiles)
		delete(r.Counters[mapreduce.CounterGroupShuffle], mapreduce.CounterShuffleSpillBytes)
		out.jobs = append(out.jobs, jobOutcome{r.Job, r.MapTasks, r.ReduceTasks, r.Counters})
	}
	return out
}

// withoutScratch drops the snapshots of _tmp/ and _shuffle/: under
// injected faults an attempt the driver gave up on may still write
// there after its job swept them, which costs nothing but debris.
func (o pipelineOutcome) withoutScratch() pipelineOutcome {
	for p := range o.files {
		if strings.Contains(p, "/_tmp/") || strings.Contains(p, "/_shuffle/") {
			delete(o.files, p)
		}
	}
	return o
}

func assertSameOutcome(t *testing.T, want, got pipelineOutcome) {
	t.Helper()
	if want.answer != got.answer {
		t.Errorf("answers differ:\n in-process %s\n other      %s", want.answer, got.answer)
	}
	if len(want.files) == 0 || len(want.jobs) == 0 {
		t.Fatalf("in-process run left %d files and %d job records: nothing to compare", len(want.files), len(want.jobs))
	}
	for p, w := range want.files {
		if g, ok := got.files[p]; !ok {
			t.Errorf("%s: missing on the other executor", p)
		} else if g != w {
			t.Errorf("%s differs: in-process %d bytes, other %d bytes", p, len(w), len(g))
		}
	}
	for p := range got.files {
		if _, ok := want.files[p]; !ok {
			t.Errorf("%s: only on the other executor", p)
		}
	}
	if !reflect.DeepEqual(want.jobs, got.jobs) {
		t.Errorf("job records differ:\n in-process %+v\n other      %+v", want.jobs, got.jobs)
	}
}

// onRPCBackend is a newExec for runPipeline: a jobtracker and one
// worker per node over a MemNetwork.
func onRPCBackend(t *testing.T, o backendOpts) func(*cluster.Cluster, *dfs.FileSystem) mapreduce.Executor {
	return func(c *cluster.Cluster, fs *dfs.FileSystem) mapreduce.Executor {
		return startBackend(t, c, fs, o).jt.Executor()
	}
}

func TestPipelinesRPCMatchInProcess(t *testing.T) {
	for _, p := range pipelines {
		t.Run(p.name, func(t *testing.T) {
			assertSameOutcome(t, runPipeline(t, p.run, nil), runPipeline(t, p.run, onRPCBackend(t, backendOpts{})))
		})
	}
}

// wireExecutor runs every attempt on the job a worker would rebuild:
// the spec's job goes through Wire, gob and Materialize first, so the
// task code comes from the kind's declaration and only what JobWire
// carries survives. Attempts run against the engine's own file system.
type wireExecutor struct{ fs *dfs.FileSystem }

func (x wireExecutor) External() bool { return true }

func (x wireExecutor) RunTask(_ context.Context, spec mapreduce.TaskSpec) (mapreduce.TaskResult, error) {
	wire, err := spec.Job.Wire()
	if err != nil {
		return mapreduce.TaskResult{}, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return mapreduce.TaskResult{}, err
	}
	var back mapreduce.JobWire
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		return mapreduce.TaskResult{}, err
	}
	if spec.Job, err = back.Materialize(); err != nil {
		return mapreduce.TaskResult{}, err
	}
	return mapreduce.ExecuteTask(x.fs, spec)
}

// TestEveryJobSurvivesTheWire is the guard that a job cannot be added
// without a kind: a pipeline job with no Kind, an undeclared one, or a
// template that disagrees with what its driver builds fails here, in
// tier-1, rather than on a worker.
func TestEveryJobSurvivesTheWire(t *testing.T) {
	for _, p := range pipelines {
		t.Run(p.name, func(t *testing.T) {
			assertSameOutcome(t, runPipeline(t, p.run, nil),
				runPipeline(t, p.run, func(_ *cluster.Cluster, fs *dfs.FileSystem) mapreduce.Executor {
					return wireExecutor{fs}
				}))
		})
	}
}

// TestResubmittedJobNamesComplete is the regression test for dedup
// keyed by job name: k-means names its jobs "kmeans-iter-NNN" on every
// call, so the second call's assignments used to be acked as duplicate
// deliveries of the first's and never ran.
func TestResubmittedJobNamesComplete(t *testing.T) {
	c, fs := newTopology(t, 64<<10)
	if err := geolife.WriteRecords(fs, "input", geolife.Generate(pipelineCorpus)); err != nil {
		t.Fatal(err)
	}
	e := startBackend(t, c, fs, backendOpts{}).engine(c, fs)
	opts := gepeto.KMeansOptions{K: 4, MaxIter: 2, UseCombiner: true, Seed: 1}
	var answers [2]string
	for i := range answers {
		done := make(chan error, 1)
		go func() {
			res, err := gepeto.KMeansMR(e, []string{"input"}, fmt.Sprintf("work-%d", i), opts)
			if err == nil {
				answers[i] = fmt.Sprint(res.Centroids, res.Sizes)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("k-means call %d: %v", i+1, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("k-means call %d on the same deployment never returned", i+1)
		}
	}
	if answers[0] != answers[1] {
		t.Fatalf("same input, same seed, different centroids:\n first  %s\n second %s", answers[0], answers[1])
	}
}
