// Job serialization for out-of-process executors. A Job carries
// function fields (mapper/reducer factories, partitioner, comparator)
// that cannot cross a process boundary, so remote execution ships the
// job's plain data plus the name of its kind, and the worker binary —
// which declared the same kind when its packages initialised —
// re-materialises the functions on its side. The same pattern as
// Hadoop shipping class names in the JobConf and instantiating them
// tasktracker-side.

package mapreduce

import (
	"fmt"
	"sync"
)

// kinds maps a kind name to the lowered template declared under it;
// only the template's function fields are read. It is filled while
// packages initialise and read-only in practice afterwards.
var (
	kindMu sync.RWMutex
	kinds  = make(map[string]*Job)
)

// Declare registers a job family and returns its template: the typed
// job with its functional surface (Kind, mapper, reducer, combiner,
// partitioner, codecs) filled in and no per-run data. Assign the result
// to a package-level variable, so that every binary importing the
// package — driver and worker alike — knows the kind, and have the
// driver build each job from a copy of it:
//
//	var wordCount = mapreduce.Declare(wordCountJob{Kind: "app/wordcount", Mapper: ...})
//
//	tj := wordCount // a copy: the template itself is never mutated
//	tj.Name, tj.InputPaths, tj.OutputPath = ...
//	engine.Run(tj.Build())
//
// The driver's job and the worker's then run the same functions by
// construction, because there is one declaration to run. The template
// carries no data on purpose: whatever a run adds (name, paths, reducer
// count, Conf, Cache, spill settings) travels in JobWire, and a
// template with data in it would be a second, silent source for it.
// Declaring a name twice panics, like gob.Register.
func Declare[KI, VI, KM, VM, KO, VO any](tj TypedJob[KI, VI, KM, VM, KO, VO]) TypedJob[KI, VI, KM, VM, KO, VO] {
	registerKind(tj.Kind, tj.Build())
	return tj
}

func registerKind(name string, template *Job) {
	if name == "" {
		panic("mapreduce: job kind declared with an empty name")
	}
	if template.newMapper == nil {
		panic(fmt.Sprintf("mapreduce: job kind %q declared without a mapper", name))
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kinds[name]; dup {
		panic(fmt.Sprintf("mapreduce: job kind %q declared twice", name))
	}
	kinds[name] = template
}

func lookupKind(name string) (*Job, bool) {
	kindMu.RLock()
	defer kindMu.RUnlock()
	k, ok := kinds[name]
	return k, ok
}

// JobWire is the process-crossing form of a Job: its plain data plus
// the kind name standing in for the function fields. All fields gob-
// encode.
type JobWire struct {
	Name        string
	Kind        string
	NumReducers int
	// HasCombiner records whether the driver's job kept the kind's
	// combiner (a template may declare one that individual jobs drop,
	// as k-means does behind KMeansOptions.UseCombiner).
	HasCombiner bool
	Conf        map[string]string
	Cache       map[string][]byte
	// MaxShuffleBytes and CompressSpill are the Job fields of the same
	// names.
	MaxShuffleBytes int64
	CompressSpill   bool
}

// Wire converts the job for shipping to a worker. It fails when the
// job has no kind, or the kind is not declared in this binary —
// catching a typo driver-side beats a per-task failure worker-side.
func (j *Job) Wire() (JobWire, error) {
	if j.Kind == "" {
		return JobWire{}, fmt.Errorf("mapreduce: job %s has no Kind; remote execution needs a declared kind", j.Name)
	}
	if _, ok := lookupKind(j.Kind); !ok {
		return JobWire{}, fmt.Errorf("mapreduce: job %s: kind %q is not registered", j.Name, j.Kind)
	}
	return JobWire{
		Name:            j.Name,
		Kind:            j.Kind,
		NumReducers:     j.NumReducers,
		HasCombiner:     j.newCombiner != nil,
		Conf:            j.Conf,
		Cache:           j.Cache,
		MaxShuffleBytes: j.MaxShuffleBytes,
		CompressSpill:   j.CompressSpill,
	}, nil
}

// Materialize rebuilds a runnable Job worker-side from the kind's
// template.
func (w JobWire) Materialize() (*Job, error) {
	k, ok := lookupKind(w.Kind)
	if !ok {
		return nil, fmt.Errorf("mapreduce: job kind %q is not registered in this binary", w.Kind)
	}
	job := &Job{
		Name:            w.Name,
		Kind:            w.Kind,
		NumReducers:     w.NumReducers,
		Conf:            w.Conf,
		Cache:           w.Cache,
		MaxShuffleBytes: w.MaxShuffleBytes,
		CompressSpill:   w.CompressSpill,
		newMapper:       k.newMapper,
		newReducer:      k.newReducer,
		partitioner:     k.partitioner,
		keyCompare:      k.keyCompare,
	}
	if w.HasCombiner {
		if k.newCombiner == nil {
			return nil, fmt.Errorf("mapreduce: job %s uses a combiner but kind %q declared none", w.Name, w.Kind)
		}
		job.newCombiner = k.newCombiner
	}
	return job, nil
}
