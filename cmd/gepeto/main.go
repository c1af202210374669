// Command gepeto is the command-line front end of the MapReduced
// GEPETO toolkit. It operates on local directories of .rec trace files
// (one file per user, "user TAB lat,lon,alt,unix" lines), spins up a
// simulated Hadoop cluster — in-process, or with -workers N over real
// `gepeto worker` processes — and runs the paper's algorithms:
//
//	gepeto generate   synthesize a GeoLife-like dataset (+ ground truth)
//	gepeto sample     down-sampling (§V)
//	gepeto kmeans     MapReduced k-means clustering (§VI)
//	gepeto djcluster  MapReduced DJ-Cluster (§VII)
//	gepeto rtree      MapReduce R-tree construction (§VII-C)
//	gepeto attack     POI inference attack + optional evaluation
//	gepeto sanitize   geo-sanitization (gaussian | cloak)
//	gepeto visualize  render a dataset to SVG
//	gepeto convert    GeoLife PLT tree <-> .rec directory conversion
//
// Run "gepeto <command> -h" for each command's flags (the k-means
// flags mirror the paper's Table II runtime arguments).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/rpc"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/gepeto/synth"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	obstrace "repro/internal/obs/trace"
	"repro/internal/privacy"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(args)
	case "synth":
		err = cmdSynth(args)
	case "sample":
		err = cmdSample(args)
	case "kmeans":
		err = cmdKMeans(args)
	case "djcluster":
		err = cmdDJCluster(args)
	case "rtree":
		err = cmdRTree(args)
	case "attack":
		err = cmdAttack(args)
	case "sanitize":
		err = cmdSanitize(args)
	case "visualize":
		err = cmdVisualize(args)
	case "convert":
		err = cmdConvert(args)
	case "stats":
		err = cmdStats(args)
	case "social":
		err = cmdSocial(args)
	case "mmc":
		err = cmdMMC(args)
	case "worker":
		err = cmdWorker(args)
	case "cluster":
		err = cmdCluster(args)
	case "analyze":
		err = cmdAnalyze(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "gepeto: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gepeto %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gepeto <command> [flags]

commands:
  generate   synthesize a GeoLife-like dataset (+ ground-truth JSON)
  synth      stream a million-user MMC-driven corpus into DFS, optionally
             running k-means over it under a bounded shuffle budget
  sample     down-sample a dataset (map-only MapReduce job, paper §V)
  kmeans     MapReduced k-means clustering (paper §VI)
  djcluster  MapReduced DJ-Cluster density clustering (paper §VII)
  rtree      MapReduce R-tree construction (paper §VII-C)
  attack     run the POI inference attack, optionally score vs truth
  sanitize   apply a geo-sanitization mechanism (gaussian | cloak)
  visualize  render a dataset (and optional attack output) to SVG
  convert    convert between GeoLife PLT directory layout and .rec dirs
  stats      summarise a dataset (users, sessions, density, extent)
  social     co-location social-link discovery (two chained MR jobs)
  mmc        build Mobility Markov Chains per user and evaluate prediction
  worker     one tasktracker process serving a command run with -workers
  cluster    live worker table from such a command's status server
  analyze    critical-path / straggler / shuffle-skew report and per-node
             attempt timelines from stored traces

cluster commands (synth, sample, kmeans, djcluster, rtree, attack,
sanitize, social, mmc) also accept -status ADDR (live span trees under
/trace/ and /analyze/, /metrics and pprof over HTTP), -historydir DIR
(trace mirror, read back by "gepeto analyze") and -workers N: run
every task on N "gepeto worker" processes over TCP instead of
in-process (-addr-file tells the workers where; -listen -wait -grace
-status-file -linger -log-level tune it).

run "gepeto <command> -h" for flags`)
}

// defaultHistoryDir is where cluster commands mirror their traces and
// where `gepeto analyze` looks by default.
const defaultHistoryDir = ".gepeto/history"

// deployFlags are the flags every cluster command shares: the shape of
// the deployment, its observability surfaces, and — with -workers —
// the out-of-process backend.
type deployFlags struct {
	nodes, racks, slots *int
	chunkMB             *int64
	status, historyDir  *string

	workers                      *int
	listen, addrFile, statusFile *string
	wait, grace, linger          *time.Duration
	logLevel                     *string
}

func clusterFlags(fs *flag.FlagSet) *deployFlags {
	return &deployFlags{
		nodes:   fs.Int("nodes", 7, "worker nodes in the simulated cluster"),
		racks:   fs.Int("racks", 2, "racks the nodes spread over"),
		slots:   fs.Int("slots", 4, "task slots per node (with -workers: must match the workers')"),
		chunkMB: fs.Int64("chunk", 64, "DFS chunk size in MB (paper uses 64 and 32)"),
		status: fs.String("status", "",
			`serve live span trees (/trace/, /analyze/), /metrics and pprof (with -workers also /cluster and federated worker metrics) on this address (e.g. ":8042"; ":0" picks a port)`),
		historyDir: fs.String("historydir", defaultHistoryDir,
			`local directory mirroring the run's traces (under _trace/) for "gepeto analyze" ("" disables the mirror)`),
		workers: fs.Int("workers", 0,
			"run every task on this many `gepeto worker` processes over TCP, one per node (overrides -nodes); 0 runs tasks in-process"),
		listen:     fs.String("listen", "127.0.0.1:0", "with -workers: address the jobtracker listens on"),
		addrFile:   fs.String("addr-file", "", "with -workers: write the jobtracker's bound address to this file (workers poll it)"),
		wait:       fs.Duration("wait", 30*time.Second, "with -workers: how long to wait for the workers to register"),
		grace:      fs.Duration("grace", 2*time.Second, "with -workers: heartbeat grace before a silent worker is declared lost"),
		statusFile: fs.String("status-file", "", "write the status server's bound address to this file"),
		linger: fs.Duration("linger", 0,
			"keep the status server (and workers) up this long after the command's work ends, successfully or not; SIGINT/SIGTERM ends early"),
		logLevel: fs.String("log-level", "warn", "with -workers: jobtracker log level (debug|info|warn|error|off)"),
	}
}

// deployAndLoad deploys (see deploy) and uploads the local dataset dir.
func deployAndLoad(df *deployFlags, inDir string) (*core.Toolkit, *trace.Dataset, func(), error) {
	tk, closer, err := deploy(df)
	if err != nil {
		return nil, nil, nil, err
	}
	ds, err := geolife.ReadRecordsLocal(inDir)
	if err != nil {
		closer()
		return nil, nil, nil, err
	}
	if err := tk.Upload(ds, "input"); err != nil {
		closer()
		return nil, nil, nil, err
	}
	return tk, ds, closer, nil
}

// deploy builds the cluster, file system and engine without loading
// any dataset. When -status or -historydir is set it attaches the
// observability bus: a causal-trace collector (mirrored under
// -historydir so "gepeto analyze" works post-mortem) and, under
// -status, the live status server serving the collector's span trees
// under /trace/ + /analyze/, and a runtime sampler. With -workers N the
// engine's executor is a jobtracker serving N `gepeto worker` processes
// over TCP, and the status server grows the /cluster table and the
// federated metrics; nothing else about the command changes. The
// returned closer lingers if asked to, then tears everything down and
// reports any trace that could not be saved (always safe to call).
func deploy(df *deployFlags) (*core.Toolkit, func(), error) {
	cfg := core.ClusterConfig{
		Nodes: *df.nodes, Racks: *df.racks, SlotsPerNode: *df.slots, ChunkSize: *df.chunkMB << 20,
	}
	var reg *obs.Registry
	var collector *obstrace.Collector
	if *df.status != "" || *df.historyDir != "" {
		reg = obs.NewRegistry()
		var store *obstrace.Store
		if *df.historyDir != "" {
			store = obstrace.NewStore(obs.NewDirFS(*df.historyDir))
		}
		collector = obstrace.NewCollector(store, 0)
		cfg.Obs = obs.NewBus(obs.NewMetricsSink(reg), collector)
	}
	// reportSaves surfaces traces the mirror failed to write: the run
	// itself succeeded, but its one persisted record is incomplete.
	reportSaves := func() {
		if collector == nil {
			return
		}
		if n, err := collector.SaveErrors(); n > 0 {
			fmt.Fprintf(os.Stderr, "trace mirror: %d trace(s) not saved; last error: %v\n", n, err)
		}
	}
	var jt *rpc.Jobtracker
	if *df.workers > 0 {
		logger, err := obs.NewLevelLogger(*df.logLevel)
		if err != nil {
			return nil, nil, err
		}
		// Every node is a worker process: a node nobody serves would
		// only hold replicas no task can read locally.
		cfg.Nodes = *df.workers
		cfg.Executor = func(c *cluster.Cluster, fs *dfs.FileSystem) mapreduce.Executor {
			jt = rpc.NewJobtracker(rpc.JobtrackerConfig{
				Cluster: c, FS: fs, Transport: &rpc.TCPNetwork{}, HeartbeatGrace: *df.grace,
				Obs: cfg.Obs, Registry: reg, Logger: logger,
			})
			return jt.Executor()
		}
	}
	tk, err := core.NewToolkit(cfg)
	if err != nil {
		return nil, nil, err
	}
	// teardown grows as pieces come up, so an error half-way releases
	// exactly what exists.
	teardown := func() {}
	if jt != nil {
		ln, err := net.Listen("tcp", *df.listen)
		if err != nil {
			jt.Stop()
			return nil, nil, err
		}
		go func() {
			if serr := rpc.Serve(ln, jt.Server()); serr != nil {
				return // listener closed at teardown
			}
		}()
		teardown = func() {
			jt.ShutdownWorkers()
			jt.Stop()
			ln.Close()
		}
		fmt.Fprintf(os.Stderr, "jobtracker listening on %s\n", ln.Addr())
		if *df.addrFile != "" {
			if err := os.WriteFile(*df.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
				teardown()
				return nil, nil, err
			}
		}
	}
	var srv *obs.StatusServer
	if *df.status != "" {
		extra := dfsGauges(tk)
		srvReg := reg
		if jt != nil {
			// The jobtracker's merged snapshot (its registry — this one —
			// plus synthesized cluster gauges plus federated per-worker
			// series) is the single source, so the registry is not handed
			// to the server and no family is rendered twice.
			srvReg = nil
		}
		srv, err = obs.NewStatusServer(*df.status, srvReg)
		if err != nil {
			teardown()
			return nil, nil, err
		}
		srv.Extra = extra
		if jt != nil {
			srv.Extra = func() string {
				var sb strings.Builder
				obs.WriteMetricPoints(&sb, jt.MetricsSnapshot())
				return sb.String() + extra()
			}
			srv.ExtraJSON = jt.MetricsSnapshot
			srv.Handle("/cluster", jt.ClusterHandler())
			srv.Handle("/cluster.json", jt.ClusterHandler())
		}
		srv.Handle("/trace/", obstrace.TraceHandler("/trace/", collector))
		srv.Handle("/analyze/", obstrace.AnalyzeHandler("/analyze/", collector, obstrace.Options{}))
		stopSampler := obs.StartRuntimeSampler(reg, time.Second)
		fmt.Fprintf(os.Stderr, "status server listening on %s\n", srv.URL())
		stopBackend := teardown
		teardown = func() {
			stopBackend()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "status server shutdown: %v\n", err)
			}
			stopSampler()
		}
		if *df.statusFile != "" {
			if err := os.WriteFile(*df.statusFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
				teardown()
				return nil, nil, err
			}
		}
	}
	if jt == nil && srv == nil {
		return tk, func() {
			teardown()
			reportSaves()
		}, nil
	}
	// While the command works, an interrupt tears the deployment down
	// and exits, so neither the listener nor a worker outlives the
	// process's work.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			fmt.Fprintln(os.Stderr, "interrupted; shutting down")
			teardown()
			os.Exit(130)
		}
	}()
	stopSignals := func() {
		signal.Stop(sig)
		close(sig)
	}
	if jt != nil {
		if err := jt.WaitForWorkers(*df.workers, *df.wait); err != nil {
			stopSignals()
			teardown()
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "%d workers registered: %s\n", *df.workers, strings.Join(jt.Workers(), " "))
	}
	return tk, func() {
		stopSignals()
		if *df.linger > 0 && srv != nil {
			// Workers keep heartbeating (and federating metrics) while the
			// status server lingers, so /cluster and /metrics can be
			// scraped after the work — a smoke test's observation window.
			// An interrupt now only ends the wait.
			fmt.Fprintf(os.Stderr, "job done; status server lingering %v on %s (SIGINT/SIGTERM to exit)\n",
				*df.linger, srv.URL())
			end := make(chan os.Signal, 1)
			signal.Notify(end, os.Interrupt, syscall.SIGTERM)
			select {
			case <-end:
				fmt.Fprintln(os.Stderr, "interrupted; shutting down")
			case <-time.After(*df.linger):
			}
			signal.Stop(end)
		}
		teardown()
		reportSaves()
	}, nil
}

// dfsGauges appends the file system's storage and I/O state to each
// /metrics scrape (gauges are read on demand, not event-driven).
func dfsGauges(tk *core.Toolkit) func() string {
	return func() string {
		s := tk.FS().Stats()
		io := tk.FS().IOStats()
		return fmt.Sprintf(`# HELP dfs_files Files stored in the simulated DFS.
# TYPE dfs_files gauge
dfs_files %d
# HELP dfs_blocks Block replicas stored across datanodes.
# TYPE dfs_blocks gauge
dfs_blocks %d
# HELP dfs_logical_bytes Logical data size excluding replication.
# TYPE dfs_logical_bytes gauge
dfs_logical_bytes %d
# HELP dfs_bytes_read_total Chunk bytes served to readers.
# TYPE dfs_bytes_read_total counter
dfs_bytes_read_total %d
# HELP dfs_bytes_written_total Logical bytes accepted by Create.
# TYPE dfs_bytes_written_total counter
dfs_bytes_written_total %d
# HELP dfs_chunks_read_total Chunk reads served.
# TYPE dfs_chunks_read_total counter
dfs_chunks_read_total %d
`, s.Files, s.Blocks, s.Bytes, io.BytesRead, io.BytesWritten, io.ChunksRead)
	}
}

// saveOutput downloads a DFS directory and writes it locally.
func saveOutput(tk *core.Toolkit, dfsDir, localDir string) error {
	out, err := tk.Download(dfsDir)
	if err != nil {
		return err
	}
	return geolife.WriteRecordsLocal(localDir, out)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	users := fs.Int("users", 10, "number of users")
	traces := fs.Int("traces", 100_000, "total number of traces")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "data", "output directory for .rec files")
	truthPath := fs.String("truth", "", "optional path for the ground-truth JSON")
	preset := fs.String("preset", "", `paper preset: "paper90" or "paper178" (overrides -users/-traces)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := geolife.Config{Users: *users, TotalTraces: *traces, Seed: *seed}
	switch *preset {
	case "paper90":
		cfg = geolife.Paper90(*seed)
	case "paper178":
		cfg = geolife.Paper178(*seed)
	case "":
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	start := time.Now()
	ds, truth := geolife.GenerateWithTruth(cfg)
	if err := geolife.WriteRecordsLocal(*out, ds); err != nil {
		return err
	}
	if *truthPath != "" {
		if err := geolife.SaveTruth(*truthPath, truth); err != nil {
			return err
		}
	}
	fmt.Printf("generated %d traces for %d users into %s in %v\n",
		ds.NumTraces(), len(ds.Trails), *out, time.Since(start).Round(time.Millisecond))
	return nil
}

// cmdSynth is the memory-wall workflow: fit MMC templates on a GeoLife
// sample, stream N synthetic users into DFS as RCIO blocks (no full
// corpus in memory), and optionally run a k-means iteration over them
// with a spill-forcing shuffle budget, printing the spill counters
// that prove runs went to DFS.
func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	users := fs.Int("users", 100_000, "synthetic users to generate")
	perUser := fs.Int("per-user", 8, "traces per user")
	seed := fs.Int64("seed", 1, "generator seed (equal seeds give equal bytes)")
	templates := fs.Int("templates", 12, "GeoLife sample users the MMC templates are fitted on")
	out := fs.String("out", "synth", "DFS directory for the generated RCIO block files")
	run := fs.String("run", "", `optional pipeline over the corpus: "kmeans" (one iteration)`)
	k := fs.Int("k", 11, "clusters for -run kmeans")
	iters := fs.Int("maxiter", 1, "iterations for -run kmeans")
	budgetMB := fs.Float64("shuffle-budget-mb", 0,
		"MaxShuffleBytes per map task in MiB (0 = unbounded: runs stay in memory)")
	compress := fs.Bool("compress-spill", true, "DEFLATE-compress spill run files")
	combiner := fs.Bool("combiner", true, "enable the k-means combiner (applied in-spill too)")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tk, closeObs, err := deploy(df)
	if err != nil {
		return err
	}
	defer closeObs()
	stats, err := synth.ToDFS(tk.FS(), *out, synth.Options{
		Users: *users, TracesPerUser: *perUser, Seed: *seed, TemplateUsers: *templates,
	})
	if err != nil {
		return err
	}
	fmt.Printf("synth: %d users, %d traces in %d RCIO files (%.1f MiB) — fit %v, generate %v\n",
		stats.Users, stats.Traces, stats.Files, float64(stats.Bytes)/(1<<20),
		stats.FitWall.Round(time.Millisecond), stats.GenWall.Round(time.Millisecond))
	if *run == "" {
		return nil
	}
	if *run != "kmeans" {
		return fmt.Errorf("unknown -run pipeline %q", *run)
	}
	budget := int64(*budgetMB * (1 << 20))
	res, err := tk.KMeans(*out, gepeto.KMeansOptions{
		K: *k, MaxIter: *iters, UseCombiner: *combiner, Seed: *seed,
		MaxShuffleBytes: budget, CompressSpill: *compress,
	})
	if err != nil {
		return err
	}
	var total time.Duration
	var spillFiles, spillBytes, spilled, shuffleBytes int64
	for _, ir := range res.IterationResults {
		total += ir.Wall
		spillFiles += ir.Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillFiles)
		spillBytes += ir.Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpillBytes)
		spilled += ir.Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleSpilledRecords)
		shuffleBytes += ir.Counters.Value(mapreduce.CounterGroupShuffle, mapreduce.CounterShuffleBytes)
	}
	fmt.Printf("kmeans: %d iterations in %v (budget %g MiB/task)\n",
		res.Iterations, total.Round(time.Millisecond), *budgetMB)
	fmt.Printf("shuffle: %d records into runs, %d bytes; spill files %d, spill bytes on DFS %d\n",
		spilled, shuffleBytes, spillFiles, spillBytes)
	if budget > 0 && spillFiles == 0 {
		fmt.Println("note: budget never tripped — no map task exceeded it")
	}
	return nil
}

func cmdSample(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	in := fs.String("in", "data", "input directory")
	out := fs.String("out", "sampled", "output directory")
	window := fs.Duration("window", time.Minute, "sampling window")
	techName := fs.String("technique", "upper", `representative choice: "upper" or "middle"`)
	reportPath := fs.String("report", "", "write the job record (counters, attempts, timings) as JSON to this file")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tech, err := gepeto.ParseSamplingTechnique(*techName)
	if err != nil {
		return err
	}
	tk, ds, closeObs, err := deployAndLoad(df, *in)
	if err != nil {
		return err
	}
	defer closeObs()
	res, err := tk.Sample("input", "output", *window, tech)
	if err != nil {
		return err
	}
	if err := saveOutput(tk, "output", *out); err != nil {
		return err
	}
	if *reportPath != "" {
		data, err := json.MarshalIndent(res.HistoryRecord(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, data, 0o644); err != nil {
			return err
		}
	}
	outRecords := res.Counters.Value(mapreduce.CounterGroupTask, mapreduce.CounterMapOutputRecords)
	fmt.Printf("sampling window=%v technique=%s: %d -> %d traces (%.1fx) | %d mappers, wall %v\n",
		*window, tech, ds.NumTraces(), outRecords,
		float64(ds.NumTraces())/float64(outRecords), res.MapTasks, res.Wall.Round(time.Millisecond))
	return nil
}

func cmdKMeans(args []string) error {
	fs := flag.NewFlagSet("kmeans", flag.ExitOnError)
	// Runtime arguments per the paper's Table II.
	in := fs.String("in", "data", "input path: directory containing the input files")
	k := fs.Int("k", 11, "number of clusters outputted by the algorithm")
	distName := fs.String("distance", "squaredeuclidean",
		"name of the metric used for measuring distance between points (squaredeuclidean|euclidean|haversine|manhattan)")
	delta := fs.Float64("convergencedelta", 1e-4, "value used for determining the convergence after each iteration (degrees)")
	maxIter := fs.Int("maxiter", 150, "maximum number of iterations")
	combiner := fs.Bool("combiner", false, "enable the map-side partial-sum combiner")
	plusplus := fs.Bool("plusplus", false, "use k-means++ seeding instead of uniform random")
	seed := fs.Int64("seed", 1, "initial-centroid seed")
	centroidsOut := fs.String("centroids-out", "", "also write the final centroid lines to this file")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	metric, err := geo.ParseMetric(*distName)
	if err != nil {
		return err
	}
	tk, ds, closeObs, err := deployAndLoad(df, *in)
	if err != nil {
		return err
	}
	defer closeObs()
	fmt.Printf("k-means on %d traces (%s)\n", ds.NumTraces(), tk.Describe())
	res, err := tk.KMeans("input", gepeto.KMeansOptions{
		K: *k, Distance: metric, ConvergenceDelta: *delta,
		MaxIter: *maxIter, UseCombiner: *combiner, Seed: *seed, PlusPlusInit: *plusplus,
	})
	if err != nil {
		return err
	}
	var total time.Duration
	for _, ir := range res.IterationResults {
		total += ir.Wall
	}
	fmt.Printf("iterations=%d converged=%v mean-iter=%v total=%v\n",
		res.Iterations, res.Converged,
		(total / time.Duration(res.Iterations)).Round(time.Millisecond),
		total.Round(time.Millisecond))
	fmt.Print(centroidLines(res))
	if *centroidsOut != "" {
		if err := os.WriteFile(*centroidsOut, []byte(centroidLines(res)), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// centroidLines renders the final clustering, for the terminal and for
// -centroids-out alike, so runs on different backends diff cleanly.
func centroidLines(res *gepeto.KMeansResult) string {
	var sb strings.Builder
	for i, c := range res.Centroids {
		fmt.Fprintf(&sb, "  centroid %2d at %s (%d traces)\n", i, c, res.Sizes[i])
	}
	return sb.String()
}

func cmdDJCluster(args []string) error {
	fs := flag.NewFlagSet("djcluster", flag.ExitOnError)
	in := fs.String("in", "data", "input directory")
	radius := fs.Float64("r", 25, "neighborhood radius in meters")
	minPts := fs.Int("minpts", 4, "minimum points per neighborhood")
	maxSpeed := fs.Float64("maxspeed", 2, "preprocessing speed threshold (km/h)")
	dupRadius := fs.Float64("dupradius", 1, "duplicate-removal radius (meters)")
	global := fs.Bool("global", false, "cluster across users (default: per-user POIs)")
	curve := fs.String("curve", "zorder", "space-filling curve for the R-tree build (zorder|hilbert)")
	topN := fs.Int("top", 10, "clusters to print")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tk, ds, closeObs, err := deployAndLoad(df, *in)
	if err != nil {
		return err
	}
	defer closeObs()
	fmt.Printf("DJ-Cluster on %d traces (%s)\n", ds.NumTraces(), tk.Describe())
	res, err := tk.DJCluster("input", gepeto.DJClusterOptions{
		RadiusMeters: *radius, MinPts: *minPts, MaxSpeedKmh: *maxSpeed,
		DupRadiusMeters: *dupRadius, PerUser: !*global,
		RTree: gepeto.RTreeBuildOptions{Curve: *curve},
	})
	if err != nil {
		return err
	}
	fmt.Printf("preprocessing: %d -> %d (speed filter) -> %d (dedup)\n",
		res.InputTraces, res.AfterSpeedFilter, res.AfterDedup)
	fmt.Printf("clusters=%d noise=%d\n", len(res.Clusters), res.Noise)
	for i, c := range res.Clusters {
		if i >= *topN {
			fmt.Printf("  ... and %d more\n", len(res.Clusters)-*topN)
			break
		}
		fmt.Printf("  %s user=%s size=%d centroid=%s\n", c.ID, c.User, len(c.Members), c.Centroid)
	}
	return nil
}

func cmdRTree(args []string) error {
	fs := flag.NewFlagSet("rtree", flag.ExitOnError)
	in := fs.String("in", "data", "input directory")
	curve := fs.String("curve", "zorder", "space-filling curve (zorder|hilbert)")
	partitions := fs.Int("partitions", 0, "number of partitions (default: cluster slots)")
	sample := fs.Int("sample", 200, "objects sampled per chunk in phase 1")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tk, ds, closeObs, err := deployAndLoad(df, *in)
	if err != nil {
		return err
	}
	defer closeObs()
	start := time.Now()
	entries, height, results, err := tk.BuildRTree("input", gepeto.RTreeBuildOptions{
		Curve: *curve, Partitions: *partitions, SamplePerChunk: *sample,
	})
	if err != nil {
		return err
	}
	fmt.Printf("R-tree over %d traces via %s curve: %d entries, height %d, built in %v\n",
		ds.NumTraces(), *curve, entries, height, time.Since(start).Round(time.Millisecond))
	for _, r := range results {
		fmt.Printf("  %s: %d map / %d reduce tasks, wall %v\n", r.Job, r.MapTasks, r.ReduceTasks, r.Wall.Round(time.Millisecond))
	}
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	in := fs.String("in", "data", "input directory")
	truthPath := fs.String("truth", "", "ground-truth JSON to score the attack against")
	window := fs.Duration("window", time.Minute, "down-sampling window before clustering")
	radius := fs.Float64("r", 25, "DJ-Cluster neighborhood radius (meters)")
	minPts := fs.Int("minpts", 4, "DJ-Cluster MinPts")
	matchRadius := fs.Float64("match", 50, "POI match radius for scoring (meters)")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tk, ds, closeObs, err := deployAndLoad(df, *in)
	if err != nil {
		return err
	}
	defer closeObs()
	fmt.Printf("POI inference attack on %d traces / %d users\n", ds.NumTraces(), len(ds.Trails))
	opts := gepeto.DefaultDJClusterOptions()
	opts.RadiusMeters = *radius
	opts.MinPts = *minPts
	pois, _, err := tk.AttackPOI("input", *window, opts)
	if err != nil {
		return err
	}
	byUser := map[string][]privacy.POI{}
	for _, p := range pois {
		byUser[p.User] = append(byUser[p.User], p)
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		fmt.Printf("user %s:\n", u)
		for _, p := range byUser[u] {
			fmt.Printf("  %-8s at %s (%d visits, %d night, %d work-hours)\n",
				p.Label, p.Center, p.Visits, p.NightVisits, p.WorkHourVisits)
		}
	}
	if *truthPath != "" {
		truth, err := geolife.LoadTruth(*truthPath)
		if err != nil {
			return err
		}
		rep := core.EvaluatePOIAttack(pois, truth, *matchRadius)
		fmt.Printf("evaluation (match radius %.0fm): homes %d/%d, works %d/%d, precision %.2f, recall %.2f\n",
			rep.MatchRadius, rep.HomeRecovered, rep.Users, rep.WorkRecovered, rep.Users,
			rep.POIPrecision, rep.POIRecall)
	}
	return nil
}

func cmdSanitize(args []string) error {
	fs := flag.NewFlagSet("sanitize", flag.ExitOnError)
	in := fs.String("in", "data", "input directory")
	out := fs.String("out", "sanitized", "output directory")
	mech := fs.String("mechanism", "gaussian", "gaussian | cloak")
	sigma := fs.Float64("sigma", 100, "gaussian noise scale (meters)")
	cell := fs.Float64("cell", 200, "cloaking grid cell (meters)")
	seed := fs.Int64("seed", 1, "noise seed")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tk, ds, closeObs, err := deployAndLoad(df, *in)
	if err != nil {
		return err
	}
	defer closeObs()
	switch *mech {
	case "gaussian":
		if _, err := tk.SanitizeGaussian("input", "output", *sigma, *seed); err != nil {
			return err
		}
	case "cloak":
		if _, err := tk.SanitizeCloaking("input", "output", *cell); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mechanism %q", *mech)
	}
	if err := saveOutput(tk, "output", *out); err != nil {
		return err
	}
	sanitized, err := geolife.ReadRecordsLocal(*out)
	if err != nil {
		return err
	}
	rep := privacy.MeasureUtility(ds, sanitized)
	fmt.Printf("%s: %d traces sanitized; mean distortion %.1fm, max %.1fm, retention %.0f%%\n",
		*mech, sanitized.NumTraces(), rep.MeanDistortionMeters, rep.MaxDistortionMeters, rep.Retention*100)
	return nil
}

func cmdVisualize(args []string) error {
	fs := flag.NewFlagSet("visualize", flag.ExitOnError)
	in := fs.String("in", "data", "input directory")
	out := fs.String("out", "map.svg", "output SVG file")
	width := fs.Int("width", 1000, "canvas width")
	height := fs.Int("height", 800, "canvas height")
	title := fs.String("title", "", "optional title")
	heat := fs.Bool("heatmap", false, "render a density heatmap instead of polylines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := geolife.ReadRecordsLocal(*in)
	if err != nil {
		return err
	}
	var c *viz.Canvas
	if *heat {
		h := viz.NewHeatmap(viz.BoundsOf(ds), *width/12, *height/12)
		h.AddDataset(ds)
		c = h.RenderSVG(*width, *height)
	} else {
		c = viz.RenderDataset(ds, *width, *height)
	}
	if *title != "" {
		c.AddTitle(*title)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.WriteSVG(f); err != nil {
		return err
	}
	fmt.Printf("rendered %d trails (%d traces) to %s\n", len(ds.Trails), ds.NumTraces(), *out)
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input path (.rec directory or GeoLife PLT tree)")
	out := fs.String("out", "", "output path")
	from := fs.String("from", "rec", `input format: "rec" or "plt"`)
	to := fs.String("to", "plt", `output format: "rec" or "plt"`)
	gap := fs.Duration("sessiongap", 30*time.Minute, "gap starting a new .plt session file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	var ds *trace.Dataset
	var err error
	switch *from {
	case "rec":
		ds, err = geolife.ReadRecordsLocal(*in)
	case "plt":
		ds, err = geolife.ReadPLTDir(*in)
	default:
		return fmt.Errorf("unknown input format %q", *from)
	}
	if err != nil {
		return err
	}
	switch *to {
	case "rec":
		err = geolife.WriteRecordsLocal(*out, ds)
	case "plt":
		err = geolife.WritePLTDir(*out, ds, *gap)
	default:
		return fmt.Errorf("unknown output format %q", *to)
	}
	if err != nil {
		return err
	}
	fmt.Printf("converted %d traces (%d users) from %s to %s\n",
		ds.NumTraces(), len(ds.Trails), *from, *to)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "data", "input directory")
	gap := fs.Duration("sessiongap", 30*time.Minute, "gap separating recording sessions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := geolife.ReadRecordsLocal(*in)
	if err != nil {
		return err
	}
	bounds := viz.BoundsOf(ds)
	fmt.Printf("dataset: %d traces, %d users\n", ds.NumTraces(), len(ds.Trails))
	fmt.Printf("extent: %s to %s\n", bounds.Min, bounds.Max)
	totalSessions := 0
	var gapSumSec float64
	var gapCount int
	for i := range ds.Trails {
		tr := &ds.Trails[i]
		sessions := geolife.SessionsOf(tr, *gap)
		totalSessions += len(sessions)
		for _, s := range sessions {
			for j := 1; j < len(s.Traces); j++ {
				gapSumSec += s.Traces[j].Time.Sub(s.Traces[j-1].Time).Seconds()
				gapCount++
			}
		}
		first, last := tr.Span()
		fmt.Printf("  user %s: %6d traces, %3d sessions, %s .. %s\n",
			tr.User, len(tr.Traces), len(sessions),
			first.Format("2006-01-02"), last.Format("2006-01-02"))
	}
	if gapCount > 0 {
		fmt.Printf("sessions: %d total; mean intra-session sampling interval %.1fs\n",
			totalSessions, gapSumSec/float64(gapCount))
	}
	return nil
}

func cmdSocial(args []string) error {
	fs := flag.NewFlagSet("social", flag.ExitOnError)
	in := fs.String("in", "data", "input directory")
	cell := fs.Float64("cell", 50, "co-location cell size (meters)")
	window := fs.Int64("window", 600, "co-location window (seconds)")
	minShared := fs.Int("minshared", 3, "minimum shared windows to report a link")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tk, ds, closeObs, err := deployAndLoad(df, *in)
	if err != nil {
		return err
	}
	defer closeObs()
	links, results, err := privacy.DiscoverSocialLinksMR(tk.Engine(), []string{"input"}, "social-work",
		privacy.SocialOptions{CellMeters: *cell, WindowSeconds: *window, MinSharedWindows: *minShared})
	if err != nil {
		return err
	}
	fmt.Printf("co-location attack over %d traces via %d MapReduce jobs: %d links\n",
		ds.NumTraces(), len(results), len(links))
	for _, l := range links {
		fmt.Printf("  %s <-> %s: %d shared windows\n", l.UserA, l.UserB, l.SharedWindows)
	}
	return nil
}

func cmdMMC(args []string) error {
	fs := flag.NewFlagSet("mmc", flag.ExitOnError)
	in := fs.String("in", "data", "input directory (preprocessed traces work best)")
	window := fs.Duration("window", time.Minute, "down-sampling window before clustering")
	radius := fs.Float64("attach", 50, "POI attach radius (meters)")
	df := clusterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tk, _, closeObs, err := deployAndLoad(df, *in)
	if err != nil {
		return err
	}
	defer closeObs()
	// POIs per user from the clustering attack; then MMCs in one job.
	pois, _, err := tk.AttackPOI("input", *window, gepeto.DefaultDJClusterOptions())
	if err != nil {
		return err
	}
	userPOIs := map[string][]geo.Point{}
	for _, p := range pois {
		userPOIs[p.User] = append(userPOIs[p.User], p.Center)
	}
	pre, err := tk.Download("input-attack-sampled-dj-work/preprocessed")
	if err != nil {
		return err
	}
	if err := tk.Upload(pre, "mmc-input"); err != nil {
		return err
	}
	chains, _, err := privacy.BuildMMCsMR(tk.Engine(), []string{"mmc-input"}, "mmc-out", userPOIs, *radius)
	if err != nil {
		return err
	}
	users := make([]string, 0, len(chains))
	for u := range chains {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		m := chains[u]
		pi := m.StationaryDistribution()
		fmt.Printf("user %s: %d states\n", u, len(m.States))
		for i, s := range m.States {
			next, p, _ := m.PredictNext(i)
			fmt.Printf("  state %d at %s: %.0f%% of time; most likely next: state %d (p=%.2f)\n",
				i, s, pi[i]*100, next, p)
		}
	}
	return nil
}

// cmdAnalyze reads stored causal traces (mirrored by cluster commands
// under -historydir) and prints the bottleneck report: critical path
// with per-phase attribution, stragglers, shuffle skew and each job's
// per-node attempt timeline. With no arguments it lists the stored
// traces.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	dir := fs.String("dir", defaultHistoryDir, "trace directory (as mirrored by -historydir)")
	slow := fs.Float64("slow", 1.5, "straggler threshold: multiple of the phase median attempt duration")
	skew := fs.Float64("skew", 2.0, "skew threshold: multiple of the mean partition volume")
	chrome := fs.String("chrome", "", "write the trace as Chrome trace_event JSON to this file (open in Perfetto)")
	asJSON := fs.Bool("json", false, "print the analysis as JSON instead of the ASCII report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st := obstrace.NewStore(obs.NewDirFS(*dir))
	if fs.NArg() == 0 {
		trees, err := st.List()
		if err != nil {
			return err
		}
		if len(trees) == 0 {
			fmt.Printf("no traces under %s (run a cluster command with -historydir)\n", *dir)
			return nil
		}
		fmt.Printf("%-4s %-32s %-22s %10s %5s\n", "seq", "root", "started", "wall", "jobs")
		for _, t := range trees {
			fmt.Printf("%-4d %-32s %-22s %10s %5d\n",
				t.Seq, t.Root.Name, t.Start().Format("2006-01-02T15:04:05"),
				time.Duration(t.WallUs())*time.Microsecond, len(t.Root.Jobs()))
		}
		return nil
	}
	opts := obstrace.Options{StragglerFactor: *slow, SkewFactor: *skew}
	for _, key := range fs.Args() {
		t, ok := st.Find(key)
		if !ok {
			return fmt.Errorf("no trace matches %q in %s", key, *dir)
		}
		if *chrome != "" {
			data, err := obstrace.EncodeChrome(t)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*chrome, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (load it at https://ui.perfetto.dev)\n", *chrome)
		}
		a := obstrace.AnalyzeTree(t, opts)
		if *asJSON {
			data, err := json.MarshalIndent(a, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			continue
		}
		obstrace.WriteReport(os.Stdout, t, a)
	}
	return nil
}
