package mapreduce

import "fmt"

// This file is the generics-typed job API over the untyped engine.
// A TypedJob carries codecs for every position in the dataflow
// (input, intermediate, output) and lowers itself onto a plain *Job:
// the lowered mapper decodes each input record, runs the typed user
// code, and encodes emissions straight into the attempt's record sink; the
// lowered reducer decodes a group's key and values back into typed
// form. Keys travel as order-preserving encodings, so the engine's
// spill sort and shuffle merge compare raw bytes and never decode —
// the Writable/RawComparator division of labour from Hadoop.

// TypedEmit is the typed counterpart of Emit.
type TypedEmit[K, V any] func(key K, value V)

// TypedMapper is the typed counterpart of Mapper. A fresh instance is
// created per map task, so implementations may accumulate per-task
// state and flush it in Cleanup.
type TypedMapper[KI, VI, KO, VO any] interface {
	Setup(ctx *TaskContext) error
	Map(ctx *TaskContext, key KI, value VI, emit TypedEmit[KO, VO]) error
	Cleanup(ctx *TaskContext, emit TypedEmit[KO, VO]) error
}

// TypedReducer is the typed counterpart of Reducer; it also serves
// for combiners (with KO = K and VO = V).
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
	// intermediate types.
	Combiner func() TypedReducer[KM, VM, KM, VM]

	// InputKey/InputValue decode the map input. For text files the key
	// is the line's byte-offset string and the value the line; for
	// binary record files they are the stored key and value bytes.
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
	// MaxShuffleBytes (binding on post-combine bytes when Combiner is
	// set) and CompressSpill: see the Job fields of the same names.
	MaxShuffleBytes int64
	CompressSpill   bool
}

// Build lowers the typed job onto the untyped engine Job.
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
		KeyCompare:      tj.KeyCompare,
		BinaryOutput:    true,
		MaxShuffleBytes: tj.MaxShuffleBytes,
		CompressSpill:   tj.CompressSpill,
	}
	if tj.Mapper != nil {
		job.NewMapper = func() Mapper {
			return &loweredMapper[KI, VI, KM, VM, KO, VO]{tj: tj, m: tj.Mapper()}
		}
	}
	if tj.Reducer != nil {
		job.NewReducer = func() Reducer {
			return &loweredReducer[KM, VM, KO, VO]{
				r: tj.Reducer(), key: tj.MapKey, val: tj.MapValue,
				outKey: tj.OutputKey, outVal: tj.OutputValue,
			}
		}
	}
	if tj.Combiner != nil {
		job.NewCombiner = func() Reducer {
			return &loweredReducer[KM, VM, KM, VM]{
				r: tj.Combiner(), key: tj.MapKey, val: tj.MapValue,
				outKey: tj.MapKey, outVal: tj.MapValue,
			}
		}
	}
	if tj.Partition != nil {
		job.Partitioner = func(key string, numReducers int) int {
			k, err := tj.MapKey.Decode(key)
			if err != nil {
				// An undecodable key fails the task later anyway; route it
				// deterministically meanwhile.
				return HashPartition(key, numReducers)
			}
			return tj.Partition(k, numReducers)
		}
	}
	if job.KeyCompare == nil {
		if rc, ok := tj.MapKey.(RawComparer); ok {
			job.KeyCompare = rc.RawCompare
		}
	}
	return job
}

// typedEmit is the typed emit of one lowered mapper or reducer: it
// appends the key's and the value's encoding straight onto the
// attempt's record sink, so a record costs no string and no allocation
// of its own. One instance runs under one TaskContext, so one closure
// serves all its methods; the string Emit the engine passes alongside
// goes to the same sink and is not used.
type typedEmit[K, V any] struct {
	emit TypedEmit[K, V]
}

func (te *typedEmit[K, V]) get(ctx *TaskContext, key Codec[K], val Codec[V]) TypedEmit[K, V] {
	if te.emit == nil {
		out := ctx.out
		te.emit = func(k K, v V) {
			buf := out.tail()
			n := len(buf)
			buf = key.Append(buf, k)
			out.add(val.Append(buf, v), len(buf)-n)
		}
	}
	return te.emit
}

// loweredMapper adapts a TypedMapper to the untyped Mapper interface.
type loweredMapper[KI, VI, KM, VM, KO, VO any] struct {
	tj *TypedJob[KI, VI, KM, VM, KO, VO]
	m  TypedMapper[KI, VI, KM, VM]
	te typedEmit[KM, VM]
}

func (lm *loweredMapper[KI, VI, KM, VM, KO, VO]) Setup(ctx *TaskContext) error {
	return lm.m.Setup(ctx)
}

func (lm *loweredMapper[KI, VI, KM, VM, KO, VO]) Map(ctx *TaskContext, key, value string, _ Emit) error {
	k, err := lm.tj.InputKey.Decode(key)
	if err != nil {
		return fmt.Errorf("decode input key: %v", err)
	}
	v, err := lm.tj.InputValue.Decode(value)
	if err != nil {
		return fmt.Errorf("decode input value: %v", err)
	}
	return lm.m.Map(ctx, k, v, lm.te.get(ctx, lm.tj.MapKey, lm.tj.MapValue))
}

func (lm *loweredMapper[KI, VI, KM, VM, KO, VO]) Cleanup(ctx *TaskContext, _ Emit) error {
	return lm.m.Cleanup(ctx, lm.te.get(ctx, lm.tj.MapKey, lm.tj.MapValue))
}

// loweredReducer adapts a TypedReducer to the untyped Reducer
// interface (for reducers and, with K/V output codecs, combiners).
type loweredReducer[K, V, KO, VO any] struct {
	r      TypedReducer[K, V, KO, VO]
	key    Codec[K]
	val    Codec[V]
	outKey Codec[KO]
	outVal Codec[VO]
	te     typedEmit[KO, VO]
	vals   []V
}

func (lr *loweredReducer[K, V, KO, VO]) Setup(ctx *TaskContext) error {
	return lr.r.Setup(ctx)
}

func (lr *loweredReducer[K, V, KO, VO]) Reduce(ctx *TaskContext, key string, values []string, _ Emit) error {
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
	return lr.r.Reduce(ctx, k, lr.vals, lr.te.get(ctx, lr.outKey, lr.outVal))
}

func (lr *loweredReducer[K, V, KO, VO]) Cleanup(ctx *TaskContext, _ Emit) error {
	return lr.r.Cleanup(ctx, lr.te.get(ctx, lr.outKey, lr.outVal))
}

// RunTyped builds and runs a typed job on the engine.
func RunTyped[KI, VI, KM, VM, KO, VO any](e *Engine, tj *TypedJob[KI, VI, KM, VM, KO, VO]) (*Result, error) {
	return e.Run(tj.Build())
}
