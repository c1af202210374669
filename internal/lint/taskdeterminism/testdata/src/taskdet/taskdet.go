// Package taskdet exercises the taskdeterminism analyzer: wall-clock
// reads, global rand, and map-ordered emission in task code are
// flagged; seeded generators, sorted emission, and non-task code are
// accepted.
package taskdet

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/mapreduce"
)

type clockMapper struct {
	mapreduce.TypedMapperBase[string, string]
}

func (m *clockMapper) Map(ctx *mapreduce.TaskContext, key, value string, emit mapreduce.TypedEmit[string, string]) error {
	t := time.Now() // want `time\.Now`
	emit(key, t.String())
	return nil
}

type globalRandMapper struct {
	mapreduce.TypedMapperBase[string, string]
}

func (m *globalRandMapper) Map(ctx *mapreduce.TaskContext, key, value string, emit mapreduce.TypedEmit[string, string]) error {
	if rand.Float64() < 0.5 { // want `shared generator`
		emit(key, value)
	}
	return nil
}

type seededMapper struct {
	mapreduce.TypedMapperBase[string, string]
	rng *rand.Rand
}

// Setup seeds a private generator from the task identity: every
// attempt of the same task draws the same sequence. Accepted.
func (m *seededMapper) Setup(ctx *mapreduce.TaskContext) error {
	m.rng = rand.New(rand.NewSource(42))
	return nil
}

func (m *seededMapper) Map(ctx *mapreduce.TaskContext, key, value string, emit mapreduce.TypedEmit[string, string]) error {
	if m.rng.Float64() < 0.5 {
		emit(key, value)
	}
	return nil
}

type stateMapper struct {
	mapreduce.TypedMapperBase[string, string]
	state map[string]int
}

func (m *stateMapper) Map(ctx *mapreduce.TaskContext, key, value string, emit mapreduce.TypedEmit[string, string]) error {
	m.state[key]++
	return nil
}

// Cleanup emits straight out of map iteration: flagged.
func (m *stateMapper) Cleanup(ctx *mapreduce.TaskContext, emit mapreduce.TypedEmit[string, string]) error {
	for k := range m.state {
		emit(k, "1") // want `map iteration order`
	}
	return nil
}

type sortedMapper struct {
	mapreduce.TypedMapperBase[string, string]
	state map[string]int
}

func (m *sortedMapper) Map(ctx *mapreduce.TaskContext, key, value string, emit mapreduce.TypedEmit[string, string]) error {
	m.state[key]++
	return nil
}

// Cleanup sorts keys before emitting: accepted.
func (m *sortedMapper) Cleanup(ctx *mapreduce.TaskContext, emit mapreduce.TypedEmit[string, string]) error {
	keys := make([]string, 0, len(m.state))
	for k := range m.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit(k, "1")
	}
	return nil
}

// helper is task code by shape (first param *TaskContext) even though
// it is not an interface method.
func helper(ctx *mapreduce.TaskContext, emit mapreduce.TypedEmit[string, string]) {
	d := time.Since(time.Time{}) // want `time\.Since`
	emit("d", d.String())
}

// adapted is a function literal lifted into a TypedMapper via
// TypedMapFunc.
var adapted = mapreduce.TypedMapFunc[string, string, string, string](
	func(ctx *mapreduce.TaskContext, key, value string, emit mapreduce.TypedEmit[string, string]) error {
		emit(key, time.Now().String()) // want `time\.Now`
		return nil
	})

// driver is not task code: the clock is fine here.
func driver() time.Time {
	return time.Now()
}
