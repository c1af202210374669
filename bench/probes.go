package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
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
	"repro/internal/recordio"
	"repro/internal/rtree"
	"repro/internal/sfc"
	"repro/internal/trace"
)

// A layer probe calls one layer's public function directly, on one
// goroutine, a fixed number of times, on fixture data generated from
// the seed the way the named workloads generate theirs. Each probe is
// the median of probePasses passes and each pass is one span.

// probeFixture is built once, untimed, before the probes run.
type probeFixture struct {
	size sizing
	seed int64
	tk   *core.Toolkit

	ds     *trace.Dataset // the Paper90-shaped corpus of rtree-build / poi-attack
	files  []string       // its text files in DFS under data/
	lines  []string       // corpus text lines (kmeans-text's record format)
	binary []string       // the same traces as TraceValue encodings
	points []geo.Point

	synthData    []byte   // one RCIO file of the kmeans-spill corpus
	keys, values []string // its records
	compressed   []byte   // the same records as a compressed run file

	pre      *trace.Dataset // sampled + preprocessed: DJ-Cluster's input
	tree     *rtree.Tree    // the poi-attack R-tree over pre
	treeBlob []byte
	entries  []rtree.Entry // corpus entries for bulk loading
	runs     [][]mapreduce.KV

	tcp        *rpc.TCPNetwork
	mem        *rpc.MemNetwork
	echoAddr   string
	remote     *rpc.RemoteStore
	closeProbe func()
}

// ops scales a probe's operation count to the fixture size.
func (fx *probeFixture) ops(base int) int {
	n := int(float64(base) * fx.size.probeScale)
	if n < 1 {
		n = 1
	}
	return n
}

type echoMsg struct{ Payload []byte }

func newProbeFixture(size sizing, seed int64) (fx *probeFixture, err error) {
	fx = &probeFixture{size: size, seed: seed}
	if fx.tk, err = deployToolkit(seed); err != nil {
		return nil, err
	}
	fs := fx.tk.FS()
	fx.ds = geolife.Generate(seeded(size.small, seed))
	if err := geolife.WriteRecordsConcat(fs, "data", fx.ds, 2); err != nil {
		return nil, err
	}
	fx.files = fs.List("data")

	// Text lines, their binary encodings and points, from the stored file.
	head, err := fs.ReadRange(fx.files[0], 0, int64(fx.ops(200_000))*64)
	if err != nil {
		return nil, err
	}
	fx.lines = strings.Split(string(head[:bytes.LastIndexByte(head, '\n')]), "\n")
	if len(fx.lines) > fx.ops(200_000) {
		fx.lines = fx.lines[:fx.ops(200_000)]
	}
	for _, l := range fx.lines {
		t, err := recordio.DecodeTraceValue(l)
		if err != nil {
			return nil, err
		}
		fx.binary = append(fx.binary, string(recordio.TraceValue{}.Append(nil, t)))
		fx.points = append(fx.points, t.Point)
		fx.entries = append(fx.entries, rtree.Entry{ID: gepeto.TraceID(t), Point: t.Point})
	}
	if err := fs.Create("lines/part.rec", []byte(strings.Join(fx.lines, "\n")+"\n"), ""); err != nil {
		return nil, err
	}
	if err := fs.Create("one/part.rec", []byte(fx.lines[0]+"\n"), ""); err != nil {
		return nil, err
	}

	// One file of the synthetic corpus: FileTraces worth of users.
	so := size.synth
	so.Seed = seed
	so.Users = fx.ops(16_384)
	if _, err := synth.ToDFS(fs, "synth", so); err != nil {
		return nil, err
	}
	if fx.synthData, err = fs.ReadAll(fs.List("synth")[0]); err != nil {
		return nil, err
	}
	cw := recordio.NewCompressedWriter(0)
	err = recordio.ScanAll(fx.synthData, func(k, v string) error {
		fx.keys, fx.values = append(fx.keys, k), append(fx.values, v)
		cw.Add(k, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fx.compressed = cw.Bytes()

	// The poi-attack index: sampled, preprocessed, bulk loaded.
	opts := gepeto.DefaultDJClusterOptions()
	sampled := gepeto.SampleSequential(fx.ds, time.Minute, gepeto.SampleUpperLimit)
	_, fx.pre = gepeto.PreprocessSequential(sampled, opts.MaxSpeedKmh, opts.DupRadiusMeters)
	var poiEntries []rtree.Entry
	for _, t := range fx.pre.AllTraces() {
		poiEntries = append(poiEntries, rtree.Entry{ID: gepeto.TraceID(t), Point: t.Point})
	}
	fx.tree = rtree.BulkLoad(poiEntries, rtree.DefaultMaxEntries)
	var blob bytes.Buffer
	if _, err := fx.tree.WriteTo(&blob); err != nil {
		return nil, err
	}
	fx.treeBlob = blob.Bytes()

	// 16 sorted runs of shuffle records keyed like rtree-build's.
	per := fx.ops(62_500)
	for r := 0; r < 16; r++ {
		run := make([]mapreduce.KV, per)
		for i := range run {
			e := fx.entries[(r*per+i)%len(fx.entries)]
			run[i] = mapreduce.KV{Key: fmt.Sprintf("%s/%02d", e.ID, r), Value: fx.binary[(r*per+i)%len(fx.binary)]}
		}
		sort.Slice(run, func(i, j int) bool { return run[i].Key < run[j].Key })
		fx.runs = append(fx.runs, run)
	}

	// A loopback echo server on both transports, and a jobtracker of its
	// own serving dfs.read to a RemoteStore.
	echo := rpc.NewServer()
	rpc.Handle(echo, "echo", func(m *echoMsg) (*echoMsg, error) { return m, nil })
	echoLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serve(echoLn, echo)
	fx.tcp, fx.mem, fx.echoAddr = &rpc.TCPNetwork{}, rpc.NewMemNetwork(), echoLn.Addr().String()
	fx.mem.Bind(fx.echoAddr, echo)

	cl, err := cluster.NewUniform(deployNodes, deployRacks, deploySlots)
	if err != nil {
		return nil, err
	}
	rfs, err := dfs.New(cl, dfs.Config{ChunkSize: deployChunkBytes, Replication: deployReplication, Seed: seed})
	if err != nil {
		return nil, err
	}
	first, err := fs.ReadAll(fx.files[0])
	if err != nil {
		return nil, err
	}
	if err := rfs.Create("data/part.rec", first, ""); err != nil {
		return nil, err
	}
	jt := rpc.NewJobtracker(rpc.JobtrackerConfig{Cluster: cl, FS: rfs, Transport: fx.tcp})
	// The jobtracker marks nodes dead until a worker registers; this one
	// only serves reads, so its datanodes come straight back.
	for _, n := range cl.Nodes() {
		cl.Restart(n.ID)
	}
	jtLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serve(jtLn, jt.Server())
	fx.remote = rpc.NewRemoteStore(fx.tcp, jtLn.Addr().String())
	fx.closeProbe = func() {
		jt.Stop()
		_ = jtLn.Close()
		_ = echoLn.Close()
	}
	return fx, nil
}

// probe is one or more metrics measured by the same pass.
type probe struct {
	metrics []string
	pass    func(fx *probeFixture) ([]float64, error)
}

// The sinks keep results alive so the compiler cannot drop a probed
// call; the typed ones avoid boxing inside a timed loop.
var (
	sink      any
	sinkBytes []byte
	sinkFloat float64
)

func mbPerS(bytes int64, d time.Duration) float64 { return float64(bytes) / (1 << 20) / d.Seconds() }
func nsPer(n int, d time.Duration) float64        { return float64(d.Nanoseconds()) / float64(n) }
func usPer(n int, d time.Duration) float64        { return nsPer(n, d) / 1e3 }
func perS(n int, d time.Duration) float64         { return float64(n) / d.Seconds() }

const fetchWindow = 256 << 10 // recordio.FileReader's window

// identityShuffleJob sends every trace through the shuffle unchanged
// under a (user, time) key: emit, sort, merge, group and commit with no
// user work in between.
type identityShuffleJob = mapreduce.TypedJob[string, trace.Trace, recordio.UserTimeKey, trace.Trace, recordio.UserTimeKey, trace.Trace]

type identityMapper struct {
	mapreduce.TypedMapperBase[recordio.UserTimeKey, trace.Trace]
}

func (identityMapper) Map(_ *mapreduce.TaskContext, _ string, t trace.Trace, emit mapreduce.TypedEmit[recordio.UserTimeKey, trace.Trace]) error {
	emit(recordio.UserTimeKey{User: t.User, Unix: t.Time.Unix()}, t)
	return nil
}

type identityReducer struct {
	mapreduce.TypedReducerBase[recordio.UserTimeKey, trace.Trace]
}

func (identityReducer) Reduce(_ *mapreduce.TaskContext, key recordio.UserTimeKey, values []trace.Trace, emit mapreduce.TypedEmit[recordio.UserTimeKey, trace.Trace]) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

func identityJob(input, output string, withReducer bool) *mapreduce.Job {
	tj := &identityShuffleJob{
		Name: "identity", InputPaths: []string{input}, OutputPath: output,
		Mapper: func() mapreduce.TypedMapper[string, trace.Trace, recordio.UserTimeKey, trace.Trace] {
			return identityMapper{}
		},
		InputKey: recordio.RawString{}, InputValue: recordio.TraceValue{},
		MapKey: recordio.UserTime{}, MapValue: recordio.TraceValue{},
	}
	if withReducer {
		tj.Reducer = func() mapreduce.TypedReducer[recordio.UserTimeKey, trace.Trace, recordio.UserTimeKey, trace.Trace] {
			return identityReducer{}
		}
		tj.OutputKey, tj.OutputValue = recordio.UserTime{}, recordio.TraceValue{}
		tj.NumReducers = deployNodes * deploySlots
	}
	return tj.Build()
}

// timeJobs runs n identity jobs and returns their total wall; output
// directories are deleted outside the timed section.
func timeJobs(fx *probeFixture, n int, input string, withReducer bool) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		_, err := fx.tk.Engine().Run(identityJob(input, "probe-out", withReducer))
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := fx.tk.FS().DeleteDir("probe-out"); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// rtts times n echo calls and returns their sorted round trips in µs.
func rtts(tr rpc.Transport, addr string, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	msg := &echoMsg{Payload: make([]byte, 64)}
	for i := 0; i < n; i++ {
		var reply echoMsg
		t0 := time.Now()
		if err := tr.Call(addr, "echo", msg, &reply); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(out)
	return out, nil
}

// oneKMeansIteration is the obs.trace_overhead_ratio subject: the
// kmeans-text job, one iteration, over the probe's corpus lines.
func oneKMeansIteration(e *mapreduce.Engine, seed int64) (time.Duration, error) {
	t0 := time.Now()
	_, err := gepeto.KMeansMR(e, []string{"lines"}, "probe-kmeans", kmeansOptions(seed, 1))
	return time.Since(t0), err
}

var probes = []probe{
	{[]string{"dfs.read_range_mb_per_s"}, func(fx *probeFixture) ([]float64, error) {
		fs := fx.tk.FS()
		var n int64
		t0 := time.Now()
		for _, f := range fx.files {
			size, err := fs.Size(f)
			if err != nil {
				return nil, err
			}
			for off := int64(0); off < size; off += fetchWindow {
				b, err := fs.ReadRange(f, off, fetchWindow)
				if err != nil {
					return nil, err
				}
				n += int64(len(b))
			}
		}
		return []float64{mbPerS(n, time.Since(t0))}, nil
	}},
	{[]string{"dfs.read_sniff_us"}, func(fx *probeFixture) ([]float64, error) {
		n := fx.ops(200)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			b, err := fx.tk.FS().ReadRange(fx.files[i%len(fx.files)], 0, recordio.HeaderLen)
			if err != nil {
				return nil, err
			}
			sinkBytes = b
		}
		return []float64{usPer(n, time.Since(t0))}, nil
	}},
	{[]string{"dfs.create_mb_per_s"}, func(fx *probeFixture) ([]float64, error) {
		fs := fx.tk.FS()
		payload, err := fs.ReadRange(fx.files[0], 0, deployChunkBytes)
		if err != nil {
			return nil, err
		}
		n := fx.ops(8)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fs.Create(fmt.Sprintf("probe-create/%d", i), payload, ""); err != nil {
				return nil, err
			}
		}
		d := time.Since(t0)
		return []float64{mbPerS(int64(n*len(payload)), d)}, fs.DeleteDir("probe-create")
	}},
	{[]string{"recordio.decode_text_ns"}, func(fx *probeFixture) ([]float64, error) {
		return decodeAll(fx.lines)
	}},
	{[]string{"recordio.decode_binary_ns"}, func(fx *probeFixture) ([]float64, error) {
		return decodeAll(fx.binary)
	}},
	{[]string{"recordio.scan_mb_per_s"}, func(fx *probeFixture) ([]float64, error) {
		var n int
		t0 := time.Now()
		err := recordio.ScanAll(fx.synthData, func(k, v string) error {
			n += len(k) + len(v)
			return nil
		})
		sink = n
		return []float64{mbPerS(int64(len(fx.synthData)), time.Since(t0))}, err
	}},
	{[]string{"recordio.write_mb_per_s"}, func(fx *probeFixture) ([]float64, error) {
		t0 := time.Now()
		w := recordio.NewWriter()
		for i := range fx.keys {
			w.Add(fx.keys[i], fx.values[i])
		}
		return []float64{mbPerS(int64(w.Len()), time.Since(t0))}, nil
	}},
	{[]string{"recordio.compress_mb_per_s", "recordio.compress_ratio"}, func(fx *probeFixture) ([]float64, error) {
		t0 := time.Now()
		w := recordio.NewCompressedWriter(0)
		for i := range fx.keys {
			w.Add(fx.keys[i], fx.values[i])
		}
		out := w.Bytes()
		d := time.Since(t0)
		return []float64{mbPerS(int64(len(fx.synthData)), d), float64(len(out)) / float64(len(fx.synthData))}, nil
	}},
	{[]string{"recordio.fileread_mb_per_s"}, func(fx *probeFixture) ([]float64, error) {
		t0 := time.Now()
		r, err := recordio.NewFileReader(int64(len(fx.compressed)), recordio.BytesFetcher(fx.compressed))
		if err != nil {
			return nil, err
		}
		n := 0
		for {
			_, _, ok, err := r.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			n++
		}
		if n != len(fx.keys) {
			return nil, fmt.Errorf("file reader returned %d records, wrote %d", n, len(fx.keys))
		}
		return []float64{mbPerS(int64(len(fx.synthData)), time.Since(t0))}, nil
	}},
	// The shape of today's spill files: a new compressed writer, three
	// records, flushed.
	{[]string{"recordio.small_run_us"}, func(fx *probeFixture) ([]float64, error) {
		n := fx.ops(500)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			w := recordio.NewCompressedWriter(0)
			for j := 0; j < 3; j++ {
				w.Add(fx.keys[(i+j)%len(fx.keys)], fx.values[(i+j)%len(fx.values)])
			}
			sinkBytes = w.Bytes()
		}
		return []float64{usPer(n, time.Since(t0))}, nil
	}},
	{[]string{"mapreduce.merge_records_per_s"}, func(fx *probeFixture) ([]float64, error) {
		t0 := time.Now()
		merged := mapreduce.MergeRuns(fx.runs)
		d := time.Since(t0)
		if len(merged) != 16*len(fx.runs[0]) {
			return nil, fmt.Errorf("merge returned %d records", len(merged))
		}
		return []float64{perS(len(merged), d)}, nil
	}},
	{[]string{"mapreduce.identity_shuffle_ns"}, func(fx *probeFixture) ([]float64, error) {
		d, err := timeJobs(fx, 1, "lines", true)
		return []float64{nsPer(len(fx.lines), d)}, err
	}},
	{[]string{"mapreduce.identity_maponly_ns"}, func(fx *probeFixture) ([]float64, error) {
		d, err := timeJobs(fx, 1, "synth", false)
		return []float64{nsPer(len(fx.keys), d)}, err
	}},
	// A job over a one-record input: the fixed cost of any job.
	{[]string{"mapreduce.empty_job_ms"}, func(fx *probeFixture) ([]float64, error) {
		n := fx.ops(10)
		d, err := timeJobs(fx, n, "one", true)
		return []float64{usPer(n, d) / 1e3}, err
	}},
	{[]string{"cluster.rpc.tcp_rtt_p50_us", "cluster.rpc.tcp_rtt_p99_us"}, func(fx *probeFixture) ([]float64, error) {
		us, err := rtts(fx.tcp, fx.echoAddr, fx.ops(1000))
		if err != nil {
			return nil, err
		}
		return []float64{quantile(us, 0.5), quantile(us, 0.99)}, nil
	}},
	// The same call without the socket: what gob alone costs.
	{[]string{"cluster.rpc.mem_rtt_p50_us"}, func(fx *probeFixture) ([]float64, error) {
		us, err := rtts(fx.mem, fx.echoAddr, fx.ops(2000))
		if err != nil {
			return nil, err
		}
		return []float64{quantile(us, 0.5)}, nil
	}},
	{[]string{"cluster.rpc.remote_read_mb_per_s"}, func(fx *probeFixture) ([]float64, error) {
		size, err := fx.remote.Size("data/part.rec")
		if err != nil {
			return nil, err
		}
		var n int64
		t0 := time.Now()
		for off := int64(0); off < size; off += fetchWindow {
			b, err := fx.remote.ReadRange("data/part.rec", off, fetchWindow)
			if err != nil {
				return nil, err
			}
			n += int64(len(b))
		}
		return []float64{mbPerS(n, time.Since(t0))}, nil
	}},
	// The sequential references, per record: the engine-free floor the
	// MapReduce walls are compared against.
	{[]string{"gepeto.kmeans_seq_ns"}, func(fx *probeFixture) ([]float64, error) {
		t0 := time.Now()
		sink = gepeto.KMeansSequential(fx.points, kmeansOptions(fx.seed, 1))
		return []float64{nsPer(len(fx.points), time.Since(t0))}, nil
	}},
	{[]string{"gepeto.sample_seq_ns"}, func(fx *probeFixture) ([]float64, error) {
		t0 := time.Now()
		sink = gepeto.SampleSequential(fx.ds, time.Minute, gepeto.SampleUpperLimit)
		return []float64{nsPer(fx.ds.NumTraces(), time.Since(t0))}, nil
	}},
	{[]string{"gepeto.djcluster_seq_ns"}, func(fx *probeFixture) ([]float64, error) {
		// One user in twenty keeps a pass short; clustering is per user.
		users := fx.pre.Users()
		sub := fx.pre.FilterUsers(users[:(len(users)+19)/20]...)
		t0 := time.Now()
		sink = gepeto.DJClusterSequential(sub, gepeto.DefaultDJClusterOptions())
		return []float64{nsPer(sub.NumTraces(), time.Since(t0))}, nil
	}},
	{[]string{"rtree.bulkload_ns"}, func(fx *probeFixture) ([]float64, error) {
		entries := append([]rtree.Entry(nil), fx.entries...)
		t0 := time.Now()
		sink = rtree.BulkLoad(entries, rtree.DefaultMaxEntries)
		return []float64{nsPer(len(entries), time.Since(t0))}, nil
	}},
	{[]string{"rtree.within_us"}, func(fx *probeFixture) ([]float64, error) {
		all := fx.pre.AllTraces()
		n := fx.ops(2000)
		t0 := time.Now()
		hits := 0
		for i := 0; i < n; i++ {
			hits += len(fx.tree.Within(all[(i*7919)%len(all)].Point, withinRadiusM))
		}
		sink = hits
		return []float64{usPer(n, time.Since(t0))}, nil
	}},
	// What every neighborhood map task does first with its cache blob.
	{[]string{"rtree.decode_ms"}, func(fx *probeFixture) ([]float64, error) {
		t0 := time.Now()
		t, err := rtree.ReadFrom(bytes.NewReader(fx.treeBlob))
		sink = t
		return []float64{float64(time.Since(t0).Nanoseconds()) / 1e6}, err
	}},
	{[]string{"sfc.zorder_ns"}, func(fx *probeFixture) ([]float64, error) {
		z := sfc.NewZOrder(geolife.Beijing)
		n := fx.ops(1_000_000)
		var acc uint64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			acc += z.Key(fx.points[i%len(fx.points)])
		}
		sinkFloat = float64(acc)
		return []float64{nsPer(n, time.Since(t0))}, nil
	}},
	{[]string{"geo.sqeuclid_ns"}, func(fx *probeFixture) ([]float64, error) {
		return distances(fx, geo.SquaredEuclidean)
	}},
	{[]string{"geo.haversine_ns"}, func(fx *probeFixture) ([]float64, error) {
		return distances(fx, geo.Haversine)
	}},
	// Set-up's three stages, on corpora small enough to repeat.
	{[]string{"synth.generate_records_per_s"}, func(fx *probeFixture) ([]float64, error) {
		so := fx.size.synth
		so.Seed, so.Users = fx.seed, fx.ops(8_192)
		t0 := time.Now()
		st, err := synth.ToDFS(fx.tk.FS(), "probe-synth", so)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		return []float64{perS(int(st.Traces), d)}, fx.tk.FS().DeleteDir("probe-synth")
	}},
	{[]string{"geolife.generate_records_per_s", "geolife.upload_mb_per_s"}, func(fx *probeFixture) ([]float64, error) {
		cfg := geolife.Config{Users: 12, TotalTraces: fx.ops(65_536), Seed: fx.seed}
		t0 := time.Now()
		ds := geolife.Generate(cfg)
		gen := time.Since(t0)
		t0 = time.Now()
		err := geolife.WriteRecordsConcat(fx.tk.FS(), "probe-upload", ds, 2)
		up := time.Since(t0)
		if err != nil {
			return nil, err
		}
		n := dirBytes(fx.tk.FS(), "probe-upload")
		return []float64{perS(ds.NumTraces(), gen), mbPerS(n, up)}, fx.tk.FS().DeleteDir("probe-upload")
	}},
	// The cost of the system's own tracing: the kmeans-text job with an
	// event bus and the trace collector attached, over the same job
	// without. Each pass is one pair.
	{[]string{"obs.trace_overhead_ratio"}, func(fx *probeFixture) ([]float64, error) {
		runtime.GC()
		plain, err := oneKMeansIteration(fx.tk.Engine(), fx.seed)
		if err != nil {
			return nil, err
		}
		bus := obs.NewBus(obstrace.NewCollector(nil, 0))
		observed := mapreduce.NewEngine(fx.tk.Cluster(), fx.tk.FS(), mapreduce.Options{Obs: bus, History: fx.tk.History()})
		runtime.GC()
		traced, err := oneKMeansIteration(observed, fx.seed)
		if err != nil {
			return nil, err
		}
		return []float64{traced.Seconds() / plain.Seconds()}, nil
	}},
}

func decodeAll(values []string) ([]float64, error) {
	var acc float64
	t0 := time.Now()
	for _, v := range values {
		t, err := recordio.DecodeTraceValue(v)
		if err != nil {
			return nil, err
		}
		acc += t.Point.Lat
	}
	sinkFloat = acc
	return []float64{nsPer(len(values), time.Since(t0))}, nil
}

func distances(fx *probeFixture, dist func(a, b geo.Point) float64) ([]float64, error) {
	n := fx.ops(1_000_000)
	var acc float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		acc += dist(fx.points[i%len(fx.points)], fx.points[(i+1)%len(fx.points)])
	}
	sinkFloat = acc
	return []float64{nsPer(n, time.Since(t0))}, nil
}

// probeResult is the probes' part of the output document.
type probeResult struct {
	Values  map[string]float64   `json:"values"`
	Passes  map[string][]float64 `json:"passes"`
	Missing map[string]string    `json:"missing,omitempty"`
	Spans   []span               `json:"spans,omitempty"`
}

// runProbes builds the fixture and runs every probe. A probe that
// errors is reported under missing with the error; the rest still run.
func runProbes(size sizing, seed int64) (*probeResult, error) {
	fx, err := newProbeFixture(size, seed)
	if err != nil {
		return nil, fmt.Errorf("probe fixture: %v", err)
	}
	defer fx.closeProbe()
	res := &probeResult{Values: map[string]float64{}, Passes: map[string][]float64{}, Missing: map[string]string{}}
	log := &spanLog{workload: "probes"}
	for _, p := range probes {
		// The previous probe's garbage must not be collected on this one's
		// clock.
		runtime.GC()
		root := log.begin(0, "probe", p.metrics[0])
		var failed error
		for i := 0; i < size.probePasses && failed == nil; i++ {
			sp := log.begin(root, "probe-pass", fmt.Sprintf("%s#%d", p.metrics[0], i))
			vals, err := p.pass(fx)
			log.end(sp)
			if err != nil {
				failed = err
				break
			}
			for j, name := range p.metrics {
				res.Passes[name] = append(res.Passes[name], vals[j])
			}
		}
		log.end(root)
		for _, name := range p.metrics {
			if failed != nil {
				delete(res.Passes, name)
				res.Missing[name] = failed.Error()
				continue
			}
			res.Values[name] = median(res.Passes[name])
		}
	}
	res.Spans = log.spans
	return res, nil
}
