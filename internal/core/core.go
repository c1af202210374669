// Package core is the top of the GEPETO reproduction: a Toolkit facade
// that assembles the simulated cluster, the DFS, and the MapReduce
// engine, and exposes the paper's operations — dataset generation and
// upload, down-sampling (§V), k-means (§VI), DJ-Cluster and MapReduce
// R-tree construction (§VII), plus the surrounding inference attacks
// and geo-sanitization mechanisms — behind one high-level API used by
// the CLI, the examples and the benchmark harness.
package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/trace"
)

// ClusterConfig shapes the simulated Hadoop deployment (paper §IV:
// one node for the jobtracker, one for the namenode, the rest hosting
// datanodes and tasktrackers; here the control roles are free, so all
// nodes carry slots).
type ClusterConfig struct {
	// Nodes is the number of worker nodes (default 7, the paper's
	// k-means testbed).
	Nodes int
	// Racks is the number of racks nodes spread over (default 2).
	Racks int
	// SlotsPerNode is the number of task slots per node (default 4).
	SlotsPerNode int
	// ChunkSize is the DFS chunk size in bytes (default 64 MB; the
	// paper evaluates 64 MB and 32 MB).
	ChunkSize int64
	// Replication is the DFS replication factor (default 3).
	Replication int
	// TaskOverhead simulates per-task scheduling cost.
	TaskOverhead time.Duration
	// Seed drives replica placement.
	Seed int64
	// Obs, if set, receives the engine's structured lifecycle events
	// (job/phase/attempt spans). Nil keeps the engine unobserved.
	Obs *obs.Bus
	// HistoryDir, if non-empty, mirrors finished-job history records to
	// this local directory in addition to the DFS's /_history/ — so a
	// later `gepeto history` invocation (a separate process) can read
	// them after the in-process DFS is gone.
	HistoryDir string
	// Executor, if set, is called once the cluster and file system
	// exist and returns the executor task attempts run on (the CLI
	// hosts an rpc.Jobtracker here). Nil keeps tasks in-process.
	Executor func(*cluster.Cluster, *dfs.FileSystem) mapreduce.Executor
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes <= 0 {
		c.Nodes = 7
	}
	if c.Racks <= 0 {
		c.Racks = 2
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 4
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = dfs.DefaultChunkSize
	}
	if c.Replication <= 0 {
		c.Replication = dfs.DefaultReplication
	}
	return c
}

// Toolkit is a deployed GEPETO instance: cluster + DFS + engine.
type Toolkit struct {
	cfg     ClusterConfig
	cluster *cluster.Cluster
	fs      *dfs.FileSystem
	engine  *mapreduce.Engine
	history *obs.History
	// DeployTime is how long cluster bring-up took (the §VI
	// "deployment overhead" measurement).
	DeployTime time.Duration
}

// NewToolkit deploys a simulated cluster and file system and returns
// the toolkit. The elapsed bring-up time is recorded in DeployTime.
func NewToolkit(cfg ClusterConfig) (*Toolkit, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	c, err := cluster.NewUniform(cfg.Nodes, cfg.Racks, cfg.SlotsPerNode)
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	fs, err := dfs.New(c, dfs.Config{
		ChunkSize:   cfg.ChunkSize,
		Replication: cfg.Replication,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	// Job history lives in the DFS (like Hadoop's /_history/), teed to
	// a local directory when one is configured so it outlives the
	// in-process file system.
	var histFS obs.FS = fs
	if cfg.HistoryDir != "" {
		histFS = obs.Tee(fs, obs.NewDirFS(cfg.HistoryDir))
	}
	hist := obs.NewHistory(histFS)
	opts := mapreduce.Options{TaskOverhead: cfg.TaskOverhead, Obs: cfg.Obs, History: hist}
	if cfg.Executor != nil {
		opts.Executor = cfg.Executor(c, fs)
	}
	e := mapreduce.NewEngine(c, fs, opts)
	return &Toolkit{
		cfg:        cfg,
		cluster:    c,
		fs:         fs,
		engine:     e,
		history:    hist,
		DeployTime: time.Since(start),
	}, nil
}

// Engine exposes the underlying MapReduce engine for custom jobs.
func (t *Toolkit) Engine() *mapreduce.Engine { return t.engine }

// FS exposes the distributed file system.
func (t *Toolkit) FS() *dfs.FileSystem { return t.fs }

// Cluster exposes the simulated cluster.
func (t *Toolkit) Cluster() *cluster.Cluster { return t.cluster }

// History exposes the job-history store fed by the engine.
func (t *Toolkit) History() *obs.History { return t.history }

// GenerateAndUpload generates a synthetic GeoLife-like dataset and
// uploads it to the DFS directory, returning the in-DFS dataset (read
// back so coordinates match the stored precision) and ground truth.
// The upload wall time is returned too — together with DeployTime it
// reproduces the paper's ~25 s deployment-overhead measurement.
func (t *Toolkit) GenerateAndUpload(cfg geolife.Config, dir string) (*trace.Dataset, *geolife.GroundTruth, time.Duration, error) {
	ds, truth := geolife.GenerateWithTruth(cfg)
	start := time.Now()
	if err := geolife.WriteRecords(t.fs, dir, ds); err != nil {
		return nil, nil, 0, err
	}
	uploadTime := time.Since(start)
	back, err := geolife.ReadRecords(t.fs, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	return back, truth, uploadTime, nil
}

// Upload stores an existing dataset into the DFS directory.
func (t *Toolkit) Upload(ds *trace.Dataset, dir string) error {
	return geolife.WriteRecords(t.fs, dir, ds)
}

// Download reads a record directory (input data or any trace-emitting
// job's output) back into a dataset.
func (t *Toolkit) Download(dir string) (*trace.Dataset, error) {
	return geolife.ReadRecords(t.fs, dir)
}

// Sample runs the §V down-sampling job.
func (t *Toolkit) Sample(inputDir, outputDir string, window time.Duration, tech gepeto.SamplingTechnique) (*mapreduce.Result, error) {
	job := gepeto.SamplingJob("sampling", []string{inputDir}, outputDir, window, tech)
	return t.engine.Run(job)
}

// KMeans runs the §VI MapReduced k-means.
func (t *Toolkit) KMeans(inputDir string, opts gepeto.KMeansOptions) (*gepeto.KMeansResult, error) {
	return gepeto.KMeansMR(t.engine, []string{inputDir}, inputDir+"-kmeans-work", opts)
}

// DJCluster runs the full §VII DJ-Cluster pipeline.
func (t *Toolkit) DJCluster(inputDir string, opts gepeto.DJClusterOptions) (*gepeto.DJClusterResult, error) {
	return gepeto.DJClusterMR(t.engine, []string{inputDir}, inputDir+"-dj-work", opts)
}

// AttackPOI runs the end-to-end POI inference attack: down-sample,
// DJ-Cluster, extract and label POIs. It is GEPETO's primary inference
// attack (§VIII). The preprocessed dataset's timestamps label the POIs.
func (t *Toolkit) AttackPOI(inputDir string, window time.Duration, opts gepeto.DJClusterOptions) (pois []privacy.POI, res *gepeto.DJClusterResult, err error) {
	// The whole attack is one pipeline span, so the trace tree links the
	// sampling job and the DJ-Cluster sub-pipeline under a single root.
	spanID := "attack:" + inputDir
	t.cfg.Obs.Emit(obs.Event{Type: obs.SpanStart, Span: spanID,
		Detail: fmt.Sprintf("window=%s r=%gm", window, opts.RadiusMeters)})
	defer func() {
		ev := obs.Event{Type: obs.SpanEnd, Span: spanID}
		if err != nil {
			ev.Err = err.Error()
		}
		t.cfg.Obs.Emit(ev)
	}()
	sampledDir := inputDir + "-attack-sampled"
	job := gepeto.SamplingJob("sampling", []string{inputDir}, sampledDir, window, gepeto.SampleUpperLimit)
	job.Parent = spanID
	if _, err := t.engine.Run(job); err != nil {
		return nil, nil, err
	}
	opts.Parent = spanID
	res, err = t.DJCluster(sampledDir, opts)
	if err != nil {
		return nil, nil, err
	}
	pre, err := t.Download(sampledDir + "-dj-work/preprocessed")
	if err != nil {
		return nil, nil, err
	}
	pois, err = privacy.ExtractPOIs(res, privacy.TraceTimes(pre))
	if err != nil {
		return nil, nil, err
	}
	return pois, res, nil
}

// SanitizeGaussian runs the MapReduced Gaussian geographical mask.
func (t *Toolkit) SanitizeGaussian(inputDir, outputDir string, sigmaMeters float64, seed int64) (*mapreduce.Result, error) {
	return t.engine.Run(privacy.GaussianMaskJob("gaussian-mask", []string{inputDir}, outputDir, sigmaMeters, seed))
}

// SanitizeCloaking runs the MapReduced spatial-cloaking job.
func (t *Toolkit) SanitizeCloaking(inputDir, outputDir string, cellMeters float64) (*mapreduce.Result, error) {
	return t.engine.Run(privacy.CloakingJob("cloaking", []string{inputDir}, outputDir, cellMeters))
}

// BuildRTree runs the §VII-C MapReduce R-tree construction and reports
// entry count and height.
func (t *Toolkit) BuildRTree(inputDir string, opts gepeto.RTreeBuildOptions) (entries, height int, results []*mapreduce.Result, err error) {
	tree, results, err := gepeto.BuildRTreeMR(t.engine, []string{inputDir}, inputDir+"-rtree-work", opts)
	if err != nil {
		return 0, 0, results, err
	}
	return tree.Len(), tree.Height(), results, nil
}

// DatasetSizeMB returns the stored size of a DFS directory in MiB.
func (t *Toolkit) DatasetSizeMB(dir string) float64 {
	var total int64
	for _, f := range t.fs.List(dir) {
		if sz, err := t.fs.Size(f); err == nil {
			total += sz
		}
	}
	return float64(total) / (1 << 20)
}

// Describe summarises the deployment for reports.
func (t *Toolkit) Describe() string {
	return fmt.Sprintf("%d nodes x %d slots, %d racks, %d MB chunks, %dx replication",
		t.cfg.Nodes, t.cfg.SlotsPerNode, t.cfg.Racks, t.cfg.ChunkSize>>20, t.cfg.Replication)
}

// EvaluatePOIAttack scores POIs against ground truth (re-exported for
// facade completeness).
func EvaluatePOIAttack(pois []privacy.POI, truth *geolife.GroundTruth, matchRadius float64) privacy.POIAttackReport {
	return privacy.EvaluatePOIAttack(pois, truth, matchRadius)
}

// POICenters extracts the centers of a user's POIs from an attack
// result, for feeding into MMC construction.
func POICenters(pois []privacy.POI, user string) []geo.Point {
	var out []geo.Point
	for _, p := range pois {
		if p.User == user {
			out = append(out, p.Center)
		}
	}
	return out
}
