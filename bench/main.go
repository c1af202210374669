// Command bench is the repository's benchmark: five GEPETO workloads,
// each verified against a sequential reference, reporting end-to-end
// metrics (tracing off) or per-layer metrics (one traced run). See
// README.md in this directory for the workloads, every metric's
// definition and how the layers are expected to move the end-to-end
// numbers.
//
//	go run ./bench -seed 1                       all workloads, untraced
//	go run ./bench -seed 1 -traced               all workloads + probes, traced
//	go run ./bench -workload kmeans-text -seed 1 -seconds 10 -trace 0
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
	"time"
)

// options are the command's flags; the supervising parent passes the
// same ones to the children it starts.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
}

func main() {
	if os.Getenv(envRole) == "worker" {
		if err := workerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var trace int
	var tracedFlag, compare bool
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five); with it the last line of standard output is the one-line result object")
	flag.Int64Var(&o.seed, "seed", 1, "seed of corpus generation, replica placement and initial centres")
	flag.Float64Var(&o.seconds, "seconds", 20, "time to measure per workload; sets the number of timed repetitions")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, probes and a Chrome trace")
	flag.BoolVar(&tracedFlag, "traced", false, "same as -trace 1")
	flag.BoolVar(&compare, "compare", false, "compare two output documents: bench -compare a.json b.json")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory the output document and the Chrome trace are written to")
	flag.Parse()
	o.traced = tracedFlag || trace == 1

	switch {
	case compare:
		os.Exit(compareMain(flag.Args()))
	case os.Getenv(envRole) == "child":
		os.Exit(childMain(o))
	default:
		os.Exit(parentMain(o))
	}
}

// procs is the parallelism the in-process workloads run at: the four
// task slots never need more, and the box may have fewer.
func procs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// childResult is what a child process prints: one workload's report,
// or the probes'.
type childResult struct {
	Workload *workloadReport `json:"workload,omitempty"`
	Probes   *probeResult    `json:"probes,omitempty"`
}

const probesName = "probes"

// childMain runs one workload (or the probes) in this process and
// prints the result as JSON. It exits 0 even when repetitions failed:
// failures travel in the report.
func childMain(o options) int {
	exitWhenOrphaned()
	runtime.GOMAXPROCS(procs())
	var res childResult
	if o.workload == probesName {
		pr, err := runProbes(fullSize, o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.Probes = pr
	} else {
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		rep := runWorkload(w, fullSize, planFor(w, o.seed, o.seconds, o.traced))
		res.Workload = &rep
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// envInfo is recorded in every document so numbers are never read
// without the box and deployment they came from.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Topology   struct {
		Nodes        int   `json:"nodes"`
		Racks        int   `json:"racks"`
		SlotsPerNode int   `json:"slots_per_node"`
		ChunkBytes   int64 `json:"chunk_bytes"`
		Replication  int   `json:"replication"`
		TCPWorkers   int   `json:"tcp_workers"`
		TCPSlots     int   `json:"tcp_slots_per_worker"`
	} `json:"topology"`
}

func currentEnv() envInfo {
	e := envInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: procs(), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	t := &e.Topology
	t.Nodes, t.Racks, t.SlotsPerNode = deployNodes, deployRacks, deploySlots
	t.ChunkBytes, t.Replication = deployChunkBytes, deployReplication
	t.TCPWorkers, t.TCPSlots = tcpWorkers, 1
	return e
}

// document is the benchmark's full output: every end-to-end metric by
// name with unit, samples and five-number summary, and for a traced run
// every per-layer metric or the reason it is missing.
type document struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Env       envInfo          `json:"env"`
	Workloads []workloadReport `json:"workloads"`
	Probes    *probeResult     `json:"probes,omitempty"`
	TraceFile string           `json:"trace_file,omitempty"`
}

const documentSchema = "gepeto-bench/1"

// parentMain supervises one child process per workload — so heap state
// and the RSS high-water mark do not leak between workloads — plus one
// for the probes of a traced run, then writes the document.
func parentMain(o options) int {
	defs := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		defs = []workloadDef{*w}
	}
	sup := newSupervisor()
	defer sup.stop()
	// One named workload is the driver's protocol, whose run must end
	// within 180 s whatever happens.
	var budget time.Time
	if o.workload != "" {
		budget = time.Now().Add(170 * time.Second)
	}
	doc := document{Schema: documentSchema, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Env: currentEnv()}
	for i := range defs {
		w := &defs[i]
		p := planFor(w, o.seed, o.seconds, o.traced)
		how := "untraced"
		if p.traced {
			how = "untraced, alternating with as many traced"
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d set-up(s), 1 warm-up + %d repetitions %s\n", w.name, p.setups, p.reps, how)
		res, err := sup.runChild(o, w.name, deadline(10*p.expectedS(w), budget))
		if err != nil || res.Workload == nil {
			if err == nil {
				err = fmt.Errorf("child printed no workload report")
			}
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			doc.Workloads = append(doc.Workloads, failedReport(w, p, err))
			continue
		}
		doc.Workloads = append(doc.Workloads, *res.Workload)
	}
	var spans []span
	if o.traced {
		const probesExpectedS = 40
		res, err := sup.runChild(o, probesName, deadline(10*probesExpectedS, budget))
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "bench: probes: %v\n", err)
			doc.Probes = &probeResult{Missing: map[string]string{}}
			for _, p := range probes {
				for _, name := range p.metrics {
					doc.Probes.Missing[name] = "probes did not finish: " + err.Error()
				}
			}
		default:
			doc.Probes = res.Probes
			spans = append(spans, res.Probes.Spans...)
			doc.Probes.Spans = nil
		}
		for i := range doc.Workloads {
			spans = append(spans, doc.Workloads[i].Spans...)
			doc.Workloads[i].Spans = nil
		}
	}
	if sup.interrupted {
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		return 130
	}
	if err := writeOutputs(&doc, spans, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printTable(&doc)
	failed := 0
	for _, w := range doc.Workloads {
		failed += w.Failed
	}
	if o.workload == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else if !printResultLine(&doc) {
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// deadline caps a child's allowance by what is left of the run's budget.
func deadline(seconds float64, budget time.Time) time.Duration {
	d := time.Duration(seconds * float64(time.Second))
	if !budget.IsZero() {
		if left := time.Until(budget); left < d {
			d = left
		}
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// writeOutputs saves the document, and the Chrome trace of a traced
// run, under the output directory.
func writeOutputs(doc *document, spans []span, o options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("seed%d", o.seed)
	if o.workload != "" {
		stem += "-" + o.workload
	}
	if o.traced {
		doc.TraceFile = filepath.Join(o.outDir, "trace-"+stem+".json")
		if err := writeChromeTrace(doc.TraceFile, spans); err != nil {
			return err
		}
		stem = "traced-" + stem
	} else {
		stem = "untraced-" + stem
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, stem+".json"), append(data, '\n'), 0o644)
}

// resultLine is the driver's protocol: the last line of standard output
// of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints every declared end-to-end metric (untraced) or
// every declared per-layer metric (traced). The protocol has no place
// for "missing", so a per-layer metric that does not exist on this
// workload reads 0 on this line; the document names it under missing
// with the reason. Without a complete set of end-to-end metrics nothing
// is printed and the run fails.
func printResultLine(doc *document) bool {
	w := doc.Workloads[0]
	line := resultLine{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]resultValue{}}
	if !doc.Traced {
		for _, d := range endToEndMetrics {
			v, ok := w.EndToEnd[d.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: %s: no %s measured\n", w.Name, d.Name)
				return false
			}
			line.Metrics[d.Name] = resultValue{Value: v.Value, Unit: d.Unit}
		}
	} else {
		for _, d := range perLayerMetrics {
			v := w.PerLayer[d.Name].Value
			if doc.Probes != nil {
				if pv, ok := doc.Probes.Values[d.Name]; ok {
					v = pv
				}
			}
			line.Metrics[d.Name] = resultValue{Value: v, Unit: d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(data))
	return true
}

// printTable writes the human summary to standard error, so standard
// output stays machine-readable.
func printTable(doc *document) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\treps\tfailed\twall_s median\t[min .. max]\trecords/s\talloc B/rec\tsetup_s\t\n")
	for _, w := range doc.Workloads {
		wall := w.EndToEnd["wall_s"]
		var lo, hi float64
		if wall.Dist != nil {
			lo, hi = wall.Dist.Min, wall.Dist.Max
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t[%.3f .. %.3f]\t%.0f\t%.0f\t%.3f\t\n",
			w.Name, w.Attempted, w.Failed, wall.Value, lo, hi,
			w.EndToEnd["records_per_s"].Value, w.EndToEnd["alloc_bytes_per_record"].Value, w.EndToEnd["setup_s"].Value)
	}
	tw.Flush()
	for _, w := range doc.Workloads {
		for _, e := range w.Errors {
			fmt.Fprintf(os.Stderr, "%s: %s\n", w.Name, e)
		}
	}
	if !doc.Traced {
		return
	}
	shares := []string{"gepeto.driver_share", "mapreduce.map_share", "mapreduce.shuffle_share", "mapreduce.reduce_share", "mapreduce.job_overhead_share"}
	tw = tabwriter.NewWriter(os.Stderr, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "\nworkload\tdriver\tmap\tshuffle\treduce\tjob overhead\tsum\ttrace overhead\t\n")
	for _, w := range doc.Workloads {
		fmt.Fprintf(tw, "%s\t", w.Name)
		sum := 0.0
		for _, s := range shares {
			sum += w.PerLayer[s].Value
			fmt.Fprintf(tw, "%.3f\t", w.PerLayer[s].Value)
		}
		fmt.Fprintf(tw, "%.3f\t%.3f\t\n", sum, w.PerLayer["harness.trace_overhead_ratio"].Value)
	}
	tw.Flush()
	if doc.Probes != nil {
		names := make([]string, 0, len(doc.Probes.Values))
		for n := range doc.Probes.Values {
			names = append(names, n)
		}
		sort.Strings(names)
		tw = tabwriter.NewWriter(os.Stderr, 0, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "\nprobe\tmedian\tunit\n")
		for _, n := range names {
			fmt.Fprintf(tw, "%s\t%.4g\t%s\n", n, doc.Probes.Values[n], unitOf(perLayerMetrics, n))
		}
		tw.Flush()
	}
}
