package mapreduce

import "repro/internal/recordio"

// The engine's own tests declare string-shaped jobs: every position of
// a strJob is a recordio.RawString, so the mapper and reducer see the
// very bytes the engine moves, and part files hold the emitted strings
// verbatim.
type (
	strJob         = TypedJob[string, string, string, string, string, string]
	strEmit        = TypedEmit[string, string]
	strMapper      = TypedMapper[string, string, string, string]
	strReducer     = TypedReducer[string, string, string, string]
	strMapFunc     = TypedMapFunc[string, string, string, string]
	strReduceFunc  = TypedReduceFunc[string, string, string, string]
	strMapperBase  = TypedMapperBase[string, string]
	strReducerBase = TypedReducerBase[string, string]
)

// build fills in tj's codecs and lowers it.
func build(tj strJob) *Job {
	raw := recordio.RawString{}
	tj.InputKey, tj.InputValue, tj.MapKey, tj.MapValue, tj.OutputKey, tj.OutputValue = raw, raw, raw, raw, raw, raw
	return tj.Build()
}

// readKVs reads a string job's output back, in part-file order.
func readKVs(e *Engine, outputPath string) ([]KV, error) {
	var kvs []KV
	raw := recordio.RawString{}
	err := ReadOutput(e, outputPath, raw, raw, func(k, v string) error {
		kvs = append(kvs, KV{k, v})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return kvs, nil
}
