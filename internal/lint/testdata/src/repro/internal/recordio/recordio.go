// Package recordio is the fixture stub of the binary record layer.
package recordio

// Int64 mirrors the order-preserving int64 key codec.
type Int64 struct{}

// Append mirrors Int64.Append.
func (Int64) Append(dst []byte, v int64) []byte { return dst }

// Decode mirrors Int64.Decode.
func (Int64) Decode(s string) (int64, error) { return 0, nil }

// RawCompare mirrors Int64.RawCompare.
func (Int64) RawCompare(a, b string) int { return 0 }

// RawString mirrors the pass-through string key codec.
type RawString struct{}

// Append mirrors RawString.Append.
func (RawString) Append(dst []byte, v string) []byte { return dst }

// Decode mirrors RawString.Decode.
func (RawString) Decode(s string) (string, error) { return s, nil }

// RawCompare mirrors RawString.RawCompare.
func (RawString) RawCompare(a, b string) int { return 0 }

// Writer mirrors the record-file writer.
type Writer struct{}

// NewWriter mirrors NewWriter.
func NewWriter() *Writer { return &Writer{} }

// Add mirrors Writer.Add.
func (w *Writer) Add(key, value string) {}

// Bytes mirrors Writer.Bytes.
func (w *Writer) Bytes() []byte { return nil }

// ScanAll mirrors the whole-file record scanner.
func ScanAll(data []byte, fn func(key, value string) error) error { return nil }

// ScanSplit mirrors the split record scanner.
func ScanSplit(buf []byte, bufStart, start, end int64, rangeLimited bool, fn func(key, value []byte) error) error {
	return nil
}
