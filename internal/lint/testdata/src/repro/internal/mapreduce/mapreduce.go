// Package mapreduce is the fixture stub of the engine's job API: the
// same exported shapes under the same import path, with no behaviour.
// Analyzer fixtures type-check against this instead of the real
// engine so testdata stays self-contained.
package mapreduce

// TaskContext mirrors the engine's per-task context.
type TaskContext struct {
	JobName string
	TaskID  string
	Attempt int
	Node    string
}

// Conf mirrors configuration lookup.
func (c *TaskContext) Conf(key string) string { return "" }

// ConfDefault mirrors configuration lookup with a default.
func (c *TaskContext) ConfDefault(key, def string) string { return def }

// Counter is the stub job counter.
type Counter struct{}

// Inc mirrors Counter.Inc.
func (c *Counter) Inc(delta int64) {}

// Counter mirrors TaskContext.Counter.
func (c *TaskContext) Counter(group, name string) *Counter { return &Counter{} }

// KV is one record.
type KV struct{ Key, Value string }

// Job mirrors the job description's data fields.
type Job struct {
	Name        string
	InputPaths  []string
	OutputPath  string
	NumReducers int
	Conf        map[string]string
}
