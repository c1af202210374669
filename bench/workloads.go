package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/gepeto/synth"
	"repro/internal/mapreduce"
	"repro/internal/rtree"
)

// The deployment is fixed and recorded in every output document: four
// single-slot nodes in process, so attempts are not time-sliced deeper
// than the box has cores; two single-slot worker processes over TCP.
const (
	deployNodes       = 4
	deployRacks       = 2
	deploySlots       = 1
	deployChunkBytes  = 4 << 20
	deployReplication = 3
	tcpWorkers        = 2
)

// sizing is the scale of the fixtures. The benchmark always runs at
// fullSize; the package test passes a tiny one so every workload and
// probe runs inside tier-1. It is a function argument, never a flag.
type sizing struct {
	big     geolife.Config // the Paper178 corpus shape
	small   geolife.Config // the Paper90 corpus shape
	synth   synth.Options
	queries int // R-tree verification queries per repetition
	// probeScale multiplies every probe's operation count and
	// probePasses is how many passes its median is taken over.
	probeScale  float64
	probePasses int
}

var fullSize = sizing{
	big:         geolife.Paper178(0),
	small:       geolife.Paper90(0),
	synth:       synth.Options{Users: 500_000, TracesPerUser: 8, TemplateUsers: 8},
	queries:     1000,
	probeScale:  1,
	probePasses: 5,
}

func deployToolkit(seed int64) (*core.Toolkit, error) {
	return core.NewToolkit(core.ClusterConfig{
		Nodes: deployNodes, Racks: deployRacks, SlotsPerNode: deploySlots,
		ChunkSize: deployChunkBytes, Replication: deployReplication, Seed: seed,
	})
}

// setupTimes is one set-up: the paper's §VI "deployment overhead".
type setupTimes struct {
	DeployS   float64 `json:"deploy_s"`
	GenerateS float64 `json:"generate_s"`
	UploadS   float64 `json:"upload_s"`
	TotalS    float64 `json:"total_s"`
}

// measurement is what one warm-up plus n timed repetitions produced.
type measurement struct {
	Walls     []float64 // seconds, successful repetitions only
	Attempted int
	Failed    int
	Errors    []string
	// AllocBytes is the TotalAlloc delta over AllocReps repetitions.
	AllocBytes uint64
	AllocReps  int
	Agg        layerAgg // filled by traced measurements
}

func (m *measurement) fail(err error) {
	m.Failed++
	if len(m.Errors) < 5 {
		m.Errors = append(m.Errors, err.Error())
	}
}

// runner is one workload bound to a size and a seed.
type runner interface {
	// setup deploys, generates and uploads, replacing any deployment a
	// previous call made, so set-up can be timed several times.
	setup(log *spanLog) (setupTimes, error)
	// reference prepares what verification compares against. It is the
	// benchmark's own work, so it is no part of set-up time.
	reference() error
	// measure runs one warm-up and then n timed repetitions. Given a span
	// log it also runs n traced ones — alternating with the untraced, so
	// that drift of the box does not read as tracing overhead — and
	// returns them second.
	measure(n int, log *spanLog) (plain, traced measurement)
	// shape reports the stated input size, its bytes in DFS and the
	// task slots of the deployment.
	shape() (records int, corpusBytes int64, slots int)
	close()
}

// pipeline is what distinguishes the in-process workloads: the corpus,
// the call under test and how its result is checked.
type pipeline struct {
	// upload generates the corpus into DFS directory input and returns
	// its record count and the generate/upload split.
	upload func(fs *dfs.FileSystem, size sizing, seed int64) (records int, gen, up time.Duration, err error)
	input  string
	// run is the timed call; it returns the Result of every job it ran.
	run func(tk *core.Toolkit, seed int64) (out any, jobs []*mapreduce.Result, err error)
	// droppedJob names a job whose Result the call does not return; its
	// record is read from the job-history store after the timed section.
	droppedJob string
	// clean deletes what the previous repetition left in DFS.
	clean func(fs *dfs.FileSystem) error
	// reference builds the sequential result; verify checks out against
	// it and returns a digest that must repeat across repetitions.
	reference func(tk *core.Toolkit, size sizing, seed int64) (any, error)
	verify    func(ref, out any) (digest string, err error)
}

type inproc struct {
	name string
	p    pipeline
	size sizing
	seed int64

	tk          *core.Toolkit
	records     int
	corpusBytes int64
	ref         any
	digest      string // of the first verified repetition
}

func (r *inproc) setup(log *spanLog) (setupTimes, error) {
	r.close()
	root := log.begin(0, "setup", "setup")
	defer log.end(root)
	t0 := time.Now()
	sp := log.begin(root, "setup", "deploy")
	tk, err := deployToolkit(r.seed)
	log.end(sp)
	if err != nil {
		return setupTimes{}, err
	}
	deploy := time.Since(t0)
	records, gen, up, err := r.p.upload(tk.FS(), r.size, r.seed)
	if err != nil {
		return setupTimes{}, err
	}
	st := setupDone(log, root, t0, deploy, gen, up)
	r.tk, r.records, r.digest = tk, records, ""
	r.corpusBytes = dirBytes(tk.FS(), r.p.input)
	return st, nil
}

// setupDone closes a set-up that started at t0. Generate and upload
// interleave inside synth.ToDFS, so their spans are laid end to end
// after the deploy span from the split the upload returned.
func setupDone(log *spanLog, root int, t0 time.Time, deploy, gen, up time.Duration) setupTimes {
	total := time.Since(t0)
	log.add(root, "setup", "generate", "driver", t0.Add(deploy), gen)
	log.add(root, "setup", "upload", "driver", t0.Add(deploy+gen), up)
	return setupTimes{DeployS: deploy.Seconds(), GenerateS: gen.Seconds(), UploadS: up.Seconds(), TotalS: total.Seconds()}
}

func dirBytes(fs *dfs.FileSystem, dir string) int64 {
	var total int64
	for _, f := range fs.List(dir) {
		if n, err := fs.Size(f); err == nil {
			total += n
		}
	}
	return total
}

func (r *inproc) reference() error {
	ref, err := r.p.reference(r.tk, r.size, r.seed)
	r.ref = ref
	return err
}

func (r *inproc) shape() (int, int64, int) {
	return r.records, r.corpusBytes, deployNodes * deploySlots
}

func (r *inproc) close() {
	r.tk, r.ref = nil, nil
	runtime.GC()
}

func (r *inproc) measure(n int, log *spanLog) (plain, traced measurement) {
	total := n
	if log != nil {
		total = 2 * n
	}
	for i := -1; i < total; i++ {
		m, spans := &plain, (*spanLog)(nil)
		if i >= 0 && i%2 == 1 && log != nil {
			m, spans = &traced, log
		}
		// Outside the timed section: drop the previous repetition's work
		// directories and collect what it left on the heap.
		if err := r.p.clean(r.tk.FS()); err != nil && i >= 0 {
			m.Attempted++
			m.fail(fmt.Errorf("cleaning work dirs: %v", err))
			continue
		}
		runtime.GC()
		rep := spans.begin(0, "rep", fmt.Sprintf("rep-%d", m.Attempted))
		io0, p0 := r.tk.FS().IOStats(), snapProc()
		var hs *heapSampler
		if spans != nil {
			hs = startHeapSampler()
		}
		call := spans.begin(rep, "pipeline", r.name)
		t0 := time.Now()
		out, results, err := r.p.run(r.tk, r.seed)
		wall := time.Since(t0)
		spans.end(call)
		var peak uint64
		if hs != nil {
			peak = hs.Stop()
		}
		p1, io1 := snapProc(), r.tk.FS().IOStats()
		var jobs []jobStat
		if spans != nil {
			if r.p.droppedJob != "" {
				if rec, ok := r.tk.History().Find(r.p.droppedJob); ok {
					jobs = append(jobs, jobFromRecord(rec))
				}
			}
			jobs = append(jobs, jobsFromResults(results)...)
		}
		spans.addJobs(call, jobs)
		vs := spans.begin(rep, "verify", "verify")
		if err == nil {
			err = r.check(out)
		}
		spans.end(vs)
		spans.end(rep)
		if i < 0 {
			continue // warm-up
		}
		m.Attempted++
		if err != nil {
			m.fail(err)
			continue
		}
		m.Walls = append(m.Walls, wall.Seconds())
		m.AllocBytes += p1.totalAlloc - p0.totalAlloc
		m.AllocReps++
		if spans != nil {
			a := &m.Agg
			a.Reps++
			a.WallS += wall.Seconds()
			a.Jobs = append(a.Jobs, jobs...)
			a.add(io0, io1, p0, p1, peak)
		}
	}
	return plain, traced
}

// check verifies one result and that it repeats the first one.
func (r *inproc) check(out any) error {
	digest, err := r.p.verify(r.ref, out)
	if err != nil {
		return err
	}
	if r.digest == "" {
		r.digest = digest
	} else if digest != r.digest {
		return fmt.Errorf("result differs from the first repetition's")
	}
	return nil
}

// ---- corpora ----

func seeded(cfg geolife.Config, seed int64) geolife.Config {
	cfg.Seed = seed
	return cfg
}

// uploadText generates a GeoLife-like corpus and uploads it as two
// concatenated files of text lines, so the chunk size sets the number
// of map tasks.
func uploadText(cfg func(sizing) geolife.Config) func(*dfs.FileSystem, sizing, int64) (int, time.Duration, time.Duration, error) {
	return func(fs *dfs.FileSystem, size sizing, seed int64) (int, time.Duration, time.Duration, error) {
		t0 := time.Now()
		ds := geolife.Generate(seeded(cfg(size), seed))
		gen := time.Since(t0)
		t0 = time.Now()
		err := geolife.WriteRecordsConcat(fs, "data", ds, 2)
		return ds.NumTraces(), gen, time.Since(t0), err
	}
}

func bigCorpus(s sizing) geolife.Config   { return s.big }
func smallCorpus(s sizing) geolife.Config { return s.small }

// uploadSynth streams the synthetic corpus into DFS as binary RCIO
// files; template fitting is its "generate", the streamed encode+write
// its "upload".
func uploadSynth(fs *dfs.FileSystem, size sizing, seed int64) (int, time.Duration, time.Duration, error) {
	opts := size.synth
	opts.Seed = seed
	st, err := synth.ToDFS(fs, "synth", opts)
	if err != nil {
		return 0, 0, 0, err
	}
	return int(st.Traces), st.FitWall, st.GenWall, nil
}

// ---- k-means ----

func kmeansOptions(seed int64, maxIter int) gepeto.KMeansOptions {
	return gepeto.KMeansOptions{
		K: 11, Distance: geo.MetricSquaredEuclidean, UseCombiner: true,
		MaxIter: maxIter, ConvergenceDelta: 1e-12, Seed: seed,
	}
}

func runKMeans(input string, opts func(seed int64) gepeto.KMeansOptions) func(*core.Toolkit, int64) (any, []*mapreduce.Result, error) {
	return func(tk *core.Toolkit, seed int64) (any, []*mapreduce.Result, error) {
		o := opts(seed)
		res, err := gepeto.KMeansMR(tk.Engine(), []string{input}, "kmeans-work", o)
		if err != nil {
			return nil, nil, err
		}
		if res.Iterations != o.MaxIter {
			return nil, nil, fmt.Errorf("k-means ran %d iterations, want exactly %d", res.Iterations, o.MaxIter)
		}
		return res, res.IterationResults, nil
	}
}

// kmeansRef holds the points as stored in DFS and runs the sequential
// k-means for however many iterations the result under test ran.
type kmeansRef struct {
	points []geo.Point
	opts   gepeto.KMeansOptions
	seq    map[int]*gepeto.KMeansResult
}

func newKMeansRef(fs *dfs.FileSystem, input string, opts gepeto.KMeansOptions) (*kmeansRef, error) {
	ref := &kmeansRef{opts: opts, seq: map[int]*gepeto.KMeansResult{}}
	pts, err := readPoints(fs, input)
	ref.points = pts
	return ref, err
}

func (k *kmeansRef) sequential(iterations int) *gepeto.KMeansResult {
	if res, ok := k.seq[iterations]; ok {
		return res
	}
	o := k.opts
	o.MaxIter = iterations
	res := gepeto.KMeansSequential(k.points, o)
	k.seq[iterations] = res
	return res
}

func kmeansReference(input string, opts func(seed int64) gepeto.KMeansOptions) func(*core.Toolkit, sizing, int64) (any, error) {
	return func(tk *core.Toolkit, _ sizing, seed int64) (any, error) {
		return newKMeansRef(tk.FS(), input, opts(seed))
	}
}

// verifyKMeans compares a result with the sequential run of as many
// iterations: every centroid within maxDeg degrees and every cluster
// size within maxSizeShare of the sequential one, and every trace
// assigned exactly once. The digest carries the exact bits, which must
// repeat across repetitions.
func verifyKMeans(maxDeg, maxSizeShare float64) func(ref, out any) (string, error) {
	return func(ref, out any) (string, error) {
		got := out.(*gepeto.KMeansResult)
		r := ref.(*kmeansRef)
		want := r.sequential(got.Iterations)
		if len(got.Centroids) != len(want.Centroids) {
			return "", fmt.Errorf("k-means: %d centroids, sequential has %d", len(got.Centroids), len(want.Centroids))
		}
		total := 0
		for i := range got.Centroids {
			g, w := got.Centroids[i], want.Centroids[i]
			if abs(g.Lat-w.Lat) > maxDeg || abs(g.Lon-w.Lon) > maxDeg {
				return "", fmt.Errorf("k-means: centroid %d is %v, sequential has %v", i, g, w)
			}
			if abs(float64(got.Sizes[i]-want.Sizes[i])) > maxSizeShare*float64(want.Sizes[i]) {
				return "", fmt.Errorf("k-means: cluster %d has %d traces, sequential has %d", i, got.Sizes[i], want.Sizes[i])
			}
			total += got.Sizes[i]
		}
		if total != len(r.points) {
			return "", fmt.Errorf("k-means: clusters hold %d traces, corpus has %d", total, len(r.points))
		}
		return fmt.Sprintf("%x %v", got.Centroids, got.Sizes), nil
	}
}

// Text corpora store coordinates at the six decimals k-means works at,
// so the MapReduce and sequential runs must agree to rounding of the
// sums and exactly on sizes.
var verifyKMeansExact = verifyKMeans(1e-9, 0)

// The synthetic corpus stores full float64 coordinates. KMeansMR ships
// centroids to its mappers rounded to six decimals and sums raw
// coordinates; KMeansSequential assigns against unrounded centroids and
// sums rounded coordinates. Traces on a cell border therefore land on
// the other side — at most 7 in 100,000 of a cluster over seeds 1-14 —
// and drag the centroid with them, by at most 5e-6 degrees over the
// same seeds. The check allows ten times both; that no trace is lost or
// counted twice is still checked exactly.
var verifyKMeansUnrounded = verifyKMeans(5e-5, 1e-3)

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func deleteDirs(dirs ...string) func(*dfs.FileSystem) error {
	return func(fs *dfs.FileSystem) error {
		for _, d := range dirs {
			if err := fs.DeleteDir(d); err != nil {
				return err
			}
		}
		return nil
	}
}

// ---- R-tree build ----

func runRTree(tk *core.Toolkit, seed int64) (any, []*mapreduce.Result, error) {
	tree, results, err := gepeto.BuildRTreeMR(tk.Engine(), []string{"data"}, "rtree-work",
		gepeto.RTreeBuildOptions{Curve: "zorder", Seed: seed})
	return tree, results, err
}

func rtreeReference(tk *core.Toolkit, size sizing, seed int64) (any, error) {
	return newWithinRef(tk.FS(), "data", size.queries, seed)
}

// verifyRTree checks size, structure, and that every reference query
// returns exactly the IDs the sorted scan found.
func verifyRTree(ref, out any) (string, error) {
	tree := out.(*rtree.Tree)
	r := ref.(*withinRef)
	if tree.Len() != len(r.entries) {
		return "", fmt.Errorf("rtree: %d entries, corpus has %d", tree.Len(), len(r.entries))
	}
	if err := tree.CheckInvariants(); err != nil {
		return "", fmt.Errorf("rtree: %v", err)
	}
	for i, q := range r.queries {
		n, h := idSetHash(tree.Within(q, withinRadiusM))
		if n != r.counts[i] || h != r.hashes[i] {
			return "", fmt.Errorf("rtree: query %d at %v returned %d entries (hash %x), scan found %d (hash %x)",
				i, q, n, h, r.counts[i], r.hashes[i])
		}
	}
	return fmt.Sprintf("%d/%d", tree.Len(), tree.Height()), nil
}

// ---- POI attack ----

// runPOIAttack is the whole attack. AttackPOI returns every job's Result
// but the sampling job's, which it runs first (see droppedJob).
func runPOIAttack(tk *core.Toolkit, _ int64) (any, []*mapreduce.Result, error) {
	pois, res, err := tk.AttackPOI("data", time.Minute, gepeto.DefaultDJClusterOptions())
	if err != nil {
		return nil, nil, err
	}
	return &poiOutcome{pois: len(pois), res: res}, res.JobResults, nil
}

// ---- the five workloads ----

// workloadDef names a workload; later issues cite these names.
type workloadDef struct {
	name string
	why  string
	// expectS is one repetition's wall on the reference box (2 cores).
	// It sizes the repetition count for a requested measuring time and
	// the deadline after which the run is killed.
	expectS float64
	// setupS is one set-up's wall on the reference box.
	setupS float64
	// corpusPasses is how often the pipeline must read the whole corpus
	// in one repetition; reads beyond it are amplification.
	corpusPasses int
	newRunner    func(size sizing, seed int64) runner
}

func inprocRunner(name string, p pipeline) func(sizing, int64) runner {
	return func(size sizing, seed int64) runner {
		return &inproc{name: name, p: p, size: size, seed: seed}
	}
}

func textKMeansOptions(seed int64) gepeto.KMeansOptions { return kmeansOptions(seed, 3) }

func spillKMeansOptions(seed int64) gepeto.KMeansOptions {
	o := kmeansOptions(seed, 1)
	o.MaxShuffleBytes = 64 << 10
	o.CompressSpill = true
	return o
}

var workloads = []workloadDef{
	{
		name:    "kmeans-text",
		why:     "the paper's Table III job on text lines: DFS ranged read, line split, strconv decode, map, emit and combine do nearly all the work; shuffle, reduce and RPC almost none",
		expectS: 3.2, setupS: 2.8, corpusPasses: 4, // seeding pass + 3 iterations
		newRunner: inprocRunner("kmeans-text", pipeline{
			upload: uploadText(bigCorpus), input: "data",
			run:       runKMeans("data", textKMeansOptions),
			clean:     deleteDirs("kmeans-work"),
			reference: kmeansReference("data", textKMeansOptions),
			verify:    verifyKMeansExact,
		}),
	},
	{
		name:    "kmeans-spill",
		why:     "the same job on binary RCIO under a 64 KiB shuffle budget: no text decode; spill sort+combine, DEFLATE run files, thousands of tiny DFS creates and the external merge",
		expectS: 2.9, setupS: 3.9, corpusPasses: 2, // seeding pass + 1 iteration
		newRunner: inprocRunner("kmeans-spill", pipeline{
			upload: uploadSynth, input: "synth",
			run: func(tk *core.Toolkit, seed int64) (any, []*mapreduce.Result, error) {
				out, jobs, err := runKMeans("synth", spillKMeansOptions)(tk, seed)
				if err == nil && jobs[0].Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillFiles) == 0 {
					err = fmt.Errorf("kmeans-spill wrote no spill files: the shuffle budget did not bind")
				}
				return out, jobs, err
			},
			clean:     deleteDirs("kmeans-work"),
			reference: kmeansReference("synth", spillKMeansOptions),
			verify:    verifyKMeansUnrounded,
		}),
	},
	{
		name:    "rtree-build",
		why:     "every input record crosses the shuffle under near-distinct keys: emit, sort, k-way merge, group iterator, a heavy reducer (bulk load) and a large output commit",
		expectS: 1.7, setupS: 1.4, corpusPasses: 2, // sample phase + partition phase
		newRunner: inprocRunner("rtree-build", pipeline{
			upload: uploadText(smallCorpus), input: "data",
			run:       runRTree,
			clean:     deleteDirs("rtree-work"),
			reference: rtreeReference,
			verify:    verifyRTree,
		}),
	},
	{
		name:    "poi-attack",
		why:     "GEPETO's primary attack, corpus to POIs: six jobs, three map-only with DFS writes, most on small inputs where per-job fixed cost shows, a cached R-tree decoded per task and a one-reducer tail",
		expectS: 2.4, setupS: 1.4, corpusPasses: 1, // the sampling job; later jobs read its output
		newRunner: inprocRunner("poi-attack", pipeline{
			upload: uploadText(smallCorpus), input: "data",
			run:        runPOIAttack,
			droppedJob: "sampling",
			clean:      deleteDirs("data-attack-sampled", "data-attack-sampled-dj-work"),
			reference:  poiReference,
			verify:     verifyPOIAttack,
		}),
	},
	{
		name:    "kmeans-tcp",
		why:     "the Table III job through a jobtracker and two worker processes over loopback TCP: gob, dial-per-call, DFS reads and creates served over RPC, assignment round trips, the all-file shuffle",
		expectS: 1.6, setupS: 3.0, corpusPasses: 1, // one iteration is one sample
		newRunner: func(size sizing, seed int64) runner { return &tcpRunner{size: size, seed: seed} },
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
