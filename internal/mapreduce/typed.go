package mapreduce

import "fmt"

// This file is the job API: the one way to describe a job. A TypedJob
// carries codecs for every position in the dataflow (input,
// intermediate, output) and lowers itself onto the engine's *Job:
// the lowered mapper decodes each input record, runs the typed user
// code, and encodes emissions straight into the attempt's record sink; the
// lowered reducer decodes a group's key and values back into typed
// form. Keys travel as order-preserving encodings, so the engine's
// spill sort and shuffle merge compare raw bytes and never decode —
// the Writable/RawComparator division of labour from Hadoop.

// TypedEmit is the callback mappers, combiners and reducers output
// records through (Hadoop's context.write).
type TypedEmit[K, V any] func(key K, value V)

// TypedMapper processes one input split record by record. A fresh
// instance is created per map task, so implementations may accumulate
// per-task state and flush it in Cleanup — the sampling mapper does
// exactly that with its current time window.
type TypedMapper[KI, VI, KO, VO any] interface {
	// Setup runs once before the first record (Hadoop setup()); the
	// k-means and DJ-Cluster mappers load centroids / the R-tree from
	// the distributed cache here.
	Setup(ctx *TaskContext) error
	// Map processes one record. For a text file the key is empty and
	// the value is the line (see recordio.ScanLines); for a record file
	// they are the stored key and value. The input strings — and what the
	// input codecs decode from them, such as a trace's User — alias
	// the split's read buffer, which nobody writes again: a mapper may
	// keep them, and keeps the buffer alive while it does.
	Map(ctx *TaskContext, key KI, value VI, emit TypedEmit[KO, VO]) error
	Cleanup(ctx *TaskContext, emit TypedEmit[KO, VO]) error
}

// TypedReducer aggregates all values sharing a key. A fresh instance is
// created per reduce task, and Reduce sees each key once, with all its
// values. The same interface serves for combiners (with KO = K and
// VO = V), which pre-aggregate map output on the map side to cut
// shuffle volume (§VI: the combiner optimisation for k-means): one
// instance per map attempt, whose Reduce sees a key many times, each
// time with a batch of its values (see TypedJob.Combiner).
type TypedReducer[K, V, KO, VO any] interface {
	Setup(ctx *TaskContext) error
	Reduce(ctx *TaskContext, key K, values []V, emit TypedEmit[KO, VO]) error
	Cleanup(ctx *TaskContext, emit TypedEmit[KO, VO]) error
}

// TypedMapperBase provides no-op Setup/Cleanup for typed mappers.
type TypedMapperBase[KO, VO any] struct{}

// Setup implements TypedMapper.
func (TypedMapperBase[KO, VO]) Setup(*TaskContext) error { return nil }

// Cleanup implements TypedMapper.
func (TypedMapperBase[KO, VO]) Cleanup(*TaskContext, TypedEmit[KO, VO]) error { return nil }

// TypedReducerBase provides no-op Setup/Cleanup for typed reducers.
type TypedReducerBase[KO, VO any] struct{}

// Setup implements TypedReducer.
func (TypedReducerBase[KO, VO]) Setup(*TaskContext) error { return nil }

// Cleanup implements TypedReducer.
func (TypedReducerBase[KO, VO]) Cleanup(*TaskContext, TypedEmit[KO, VO]) error { return nil }

// TypedMapFunc adapts a function to TypedMapper.
type TypedMapFunc[KI, VI, KO, VO any] func(ctx *TaskContext, key KI, value VI, emit TypedEmit[KO, VO]) error

// Setup implements TypedMapper.
func (TypedMapFunc[KI, VI, KO, VO]) Setup(*TaskContext) error { return nil }

// Map implements TypedMapper.
func (f TypedMapFunc[KI, VI, KO, VO]) Map(ctx *TaskContext, key KI, value VI, emit TypedEmit[KO, VO]) error {
	return f(ctx, key, value, emit)
}

// Cleanup implements TypedMapper.
func (TypedMapFunc[KI, VI, KO, VO]) Cleanup(*TaskContext, TypedEmit[KO, VO]) error { return nil }

// TypedReduceFunc adapts a function to TypedReducer.
type TypedReduceFunc[K, V, KO, VO any] func(ctx *TaskContext, key K, values []V, emit TypedEmit[KO, VO]) error

// Setup implements TypedReducer.
func (TypedReduceFunc[K, V, KO, VO]) Setup(*TaskContext) error { return nil }

// Reduce implements TypedReducer.
func (f TypedReduceFunc[K, V, KO, VO]) Reduce(ctx *TaskContext, key K, values []V, emit TypedEmit[KO, VO]) error {
	return f(ctx, key, values, emit)
}

// Cleanup implements TypedReducer.
func (TypedReduceFunc[K, V, KO, VO]) Cleanup(*TaskContext, TypedEmit[KO, VO]) error { return nil }

// TypedJob describes a MapReduce job over typed records. The six type
// parameters are the input, intermediate (map output) and final
// output key/value types; a codec is required for each position that
// is actually exercised (no Reducer ⇒ the intermediate codecs double
// as output codecs and OutputKey/OutputValue stay nil).
type TypedJob[KI, VI, KM, VM, KO, VO any] struct {
	Name string
	// Kind names the job family for remote execution; see Declare.
	Kind       string
	InputPaths []string
	OutputPath string

	// Mapper creates the typed mapper per map task. Required.
	Mapper func() TypedMapper[KI, VI, KM, VM]
	// Reducer creates the typed reducer per reduce task; nil makes the
	// job map-only.
	Reducer func() TypedReducer[KM, VM, KO, VO]
	// Combiner optionally creates a map-side combiner over the
	// intermediate types: one instance per map attempt, set up before
	// the first record and cleaned up after the mapper's Cleanup. It
	// folds records as they are emitted: a key's values in batches, each
	// batch after the key's earlier combined output, in emission order.
	// So it may run many times over what it emitted itself, and must be
	// associative. What it emits under the key it was given is fed back
	// to it; records under other keys, and what Cleanup emits, go to the
	// shuffle as they are.
	Combiner func() TypedReducer[KM, VM, KM, VM]

	// InputKey/InputValue decode the map input. For text files the key
	// is empty and the value the line; for binary record files they are
	// the stored key and value bytes.
	InputKey   Codec[KI]
	InputValue Codec[VI]
	// MapKey/MapValue code the intermediate records. MapKey should
	// be order-preserving; if it implements RawComparer its comparison
	// becomes the job's KeyCompare.
	MapKey   Codec[KM]
	MapValue Codec[VM]
	// OutputKey/OutputValue code the reducer's emissions (unused for
	// map-only jobs).
	OutputKey   Codec[KO]
	OutputValue Codec[VO]

	NumReducers int
	// Partition routes a decoded intermediate key to a reducer;
	// defaults to hashing the encoded key bytes.
	Partition func(key KM, numReducers int) int
	// KeyCompare overrides the intermediate key order; defaults to
	// MapKey's RawCompare when implemented, else plain byte order.
	KeyCompare func(a, b string) int

	Conf        map[string]string
	Cache       map[string][]byte
	MaxAttempts int
	Parent      string
	// MaxShuffleBytes and CompressSpill: see the Job fields of the same
	// names.
	MaxShuffleBytes int64
	CompressSpill   bool
}

// Build lowers the typed job onto the engine's Job.
func (tj *TypedJob[KI, VI, KM, VM, KO, VO]) Build() *Job {
	job := &Job{
		Name:            tj.Name,
		Kind:            tj.Kind,
		InputPaths:      tj.InputPaths,
		OutputPath:      tj.OutputPath,
		NumReducers:     tj.NumReducers,
		Conf:            tj.Conf,
		Cache:           tj.Cache,
		MaxAttempts:     tj.MaxAttempts,
		Parent:          tj.Parent,
		keyCompare:      tj.KeyCompare,
		MaxShuffleBytes: tj.MaxShuffleBytes,
		CompressSpill:   tj.CompressSpill,
	}
	if tj.Mapper != nil {
		job.newMapper = func() mapper {
			return &loweredMapper[KI, VI, KM, VM, KO, VO]{tj: tj, m: tj.Mapper()}
		}
	}
	if tj.Reducer != nil {
		job.newReducer = func() reducer {
			return &loweredReducer[KM, VM, KO, VO]{
				r: tj.Reducer(), key: tj.MapKey, val: tj.MapValue,
				outKey: tj.OutputKey, outVal: tj.OutputValue,
			}
		}
	}
	if tj.Combiner != nil {
		job.newCombiner = func() reducer {
			return &loweredReducer[KM, VM, KM, VM]{
				r: tj.Combiner(), key: tj.MapKey, val: tj.MapValue,
				outKey: tj.MapKey, outVal: tj.MapValue,
			}
		}
	}
	if tj.Partition != nil {
		job.partitioner = func(key string, numReducers int) int {
			k, err := tj.MapKey.Decode(key)
			if err != nil {
				// An undecodable key fails the task later anyway; route it
				// deterministically meanwhile.
				return HashPartition(key, numReducers)
			}
			return tj.Partition(k, numReducers)
		}
	}
	if job.keyCompare == nil {
		if rc, ok := tj.MapKey.(RawComparer); ok {
			job.keyCompare = rc.RawCompare
		}
	}
	return job
}

// sinkEmit is the typed emit of one lowered mapper or reducer: it
// appends the key's and the value's encoding straight onto the
// attempt's record sink, so a record costs no string and no allocation
// of its own.
func sinkEmit[K, V any](out recordSink, key Codec[K], val Codec[V]) TypedEmit[K, V] {
	return func(k K, v V) {
		buf := out.tail()
		n := len(buf)
		buf = key.Append(buf, k)
		out.add(val.Append(buf, v), len(buf)-n)
	}
}

// loweredMapper adapts a TypedMapper to the engine's mapper. Setup
// binds its emit to the attempt's record sink.
type loweredMapper[KI, VI, KM, VM, KO, VO any] struct {
	tj   *TypedJob[KI, VI, KM, VM, KO, VO]
	m    TypedMapper[KI, VI, KM, VM]
	emit TypedEmit[KM, VM]
}

func (lm *loweredMapper[KI, VI, KM, VM, KO, VO]) Setup(ctx *TaskContext) error {
	lm.emit = sinkEmit(ctx.out, lm.tj.MapKey, lm.tj.MapValue)
	return lm.m.Setup(ctx)
}

func (lm *loweredMapper[KI, VI, KM, VM, KO, VO]) Map(ctx *TaskContext, key, value string) error {
	k, err := lm.tj.InputKey.Decode(key)
	if err != nil {
		return permanentError{fmt.Errorf("decode input key: %v", err)}
	}
	v, err := lm.tj.InputValue.Decode(value)
	if err != nil {
		return permanentError{fmt.Errorf("decode input value: %v", err)}
	}
	return lm.m.Map(ctx, k, v, lm.emit)
}

func (lm *loweredMapper[KI, VI, KM, VM, KO, VO]) Cleanup(ctx *TaskContext) error {
	return lm.m.Cleanup(ctx, lm.emit)
}

// loweredReducer adapts a TypedReducer to the engine's reducer (for
// reducers and, with K/V output codecs, combiners). Setup binds its emit
// to the attempt's record sink.
type loweredReducer[K, V, KO, VO any] struct {
	r      TypedReducer[K, V, KO, VO]
	key    Codec[K]
	val    Codec[V]
	outKey Codec[KO]
	outVal Codec[VO]
	emit   TypedEmit[KO, VO]
	vals   []V
}

func (lr *loweredReducer[K, V, KO, VO]) Setup(ctx *TaskContext) error {
	lr.emit = sinkEmit(ctx.out, lr.outKey, lr.outVal)
	return lr.r.Setup(ctx)
}

func (lr *loweredReducer[K, V, KO, VO]) Reduce(ctx *TaskContext, key string, values []string) error {
	k, err := lr.key.Decode(key)
	if err != nil {
		return fmt.Errorf("decode key: %v", err)
	}
	lr.vals = lr.vals[:0]
	for i, s := range values {
		v, err := lr.val.Decode(s)
		if err != nil {
			return fmt.Errorf("decode value %d of key %q: %v", i, key, err)
		}
		lr.vals = append(lr.vals, v)
	}
	return lr.r.Reduce(ctx, k, lr.vals, lr.emit)
}

func (lr *loweredReducer[K, V, KO, VO]) Cleanup(ctx *TaskContext) error {
	return lr.r.Cleanup(ctx, lr.emit)
}
