package mapreduce

// Codec translates a typed key or value to and from the engine's wire
// currency — the bytes inside a KV string. Implementations live in
// internal/recordio (scalar keys, trace records, partial sums) and in
// the pipelines for job-private types; the engine itself never
// depends on a concrete codec.
//
// Append writes the encoding of v onto dst and returns the extended
// slice, so the typed emit path reuses one scratch buffer per task
// instead of allocating per record. Decode parses a complete encoded
// value; it must reject trailing or truncated bytes, because a decode
// error is the only corruption signal the typed layer has.
type Codec[T any] interface {
	Append(dst []byte, v T) []byte
	Decode(s string) (T, error)
}

// RawComparer is the optional fast path of a key codec (Hadoop's
// RawComparator): ordering two keys directly on their encoded bytes,
// without decoding. Key codecs whose encodings are order-preserving
// implement it as a plain byte compare; TypedJob.Build makes it the
// job's key order unless TypedJob.KeyCompare overrides it.
type RawComparer interface {
	RawCompare(a, b string) int
}
