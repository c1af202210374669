// Package retain exercises the emitretain analyzer: storing or
// aliasing the Reduce values slice or a codec Append dst buffer is
// flagged; copying elements out is accepted.
package retain

import (
	"encoding/binary"

	"repro/internal/mapreduce"
)

type retainingReducer struct {
	mapreduce.TypedReducerBase[string, string]
	last []string
}

func (r *retainingReducer) Reduce(ctx *mapreduce.TaskContext, key string, values []string, emit mapreduce.TypedEmit[string, string]) error {
	r.last = values // want `values slice passed to Reduce is reused`
	return nil
}

type subsliceReducer struct {
	mapreduce.TypedReducerBase[string, string]
	head []string
}

func (r *subsliceReducer) Reduce(ctx *mapreduce.TaskContext, key string, values []string, emit mapreduce.TypedEmit[string, string]) error {
	r.head = values[:1] // want `values slice passed to Reduce is reused`
	return nil
}

var lastValues []string

type appendingReducer struct {
	mapreduce.TypedReducerBase[string, string]
	batches [][]string
}

func (r *appendingReducer) Reduce(ctx *mapreduce.TaskContext, key string, values []string, emit mapreduce.TypedEmit[string, string]) error {
	lastValues = values                   // want `values slice passed to Reduce is reused`
	r.batches = append(r.batches, values) // want `append stores values as an element`
	return nil
}

type copyingReducer struct {
	mapreduce.TypedReducerBase[string, string]
	all []string
}

// Reduce copies the elements out: accepted.
func (r *copyingReducer) Reduce(ctx *mapreduce.TaskContext, key string, values []string, emit mapreduce.TypedEmit[string, string]) error {
	r.all = append(r.all, values...)
	own := make([]string, len(values))
	copy(own, values)
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

type batch struct {
	key    string
	values []string
}

type literalReducer struct {
	mapreduce.TypedReducerBase[string, string]
	batches []batch
}

func (r *literalReducer) Reduce(ctx *mapreduce.TaskContext, key string, values []string, emit mapreduce.TypedEmit[string, string]) error {
	r.batches = append(r.batches, batch{
		key:    key,
		values: values, // want `composite literal captures values`
	})
	return nil
}

// PairCodec retains its scratch buffer: flagged.
type PairCodec struct {
	scratch []byte
}

func (c *PairCodec) Append(dst []byte, v uint32) []byte {
	c.scratch = dst // want `dst scratch buffer passed to Append is reused`
	return binary.BigEndian.AppendUint32(dst, v)
}

func (c *PairCodec) Decode(s string) (uint32, error) { return 0, nil }

// CleanCodec appends and returns, the contract shape: accepted.
type CleanCodec struct{}

func (CleanCodec) Append(dst []byte, v uint32) []byte {
	dst = append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	return dst
}

func (CleanCodec) Decode(s string) (uint32, error) { return 0, nil }
