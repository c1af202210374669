package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// FS is the minimal file-store surface trace persistence needs.
// *dfs.FileSystem satisfies it structurally; DirFS adapts a local
// directory so traces survive the in-process DFS.
type FS interface {
	// Create writes a new file; it fails if path already exists.
	// localNode is the writing datanode identity ("" for clients).
	Create(path string, data []byte, localNode string) error
	// List returns the sorted paths of files under the dir prefix.
	List(dir string) []string
	// ReadAll returns a file's full contents.
	ReadAll(path string) ([]byte, error)
}

// AttemptRecord describes one task attempt of a finished job: which
// node ran it, when (as offsets from job submission), how it ended and
// with what data locality.
type AttemptRecord struct {
	// Task is the owning task ("map-0007", "reduce-0000").
	Task string `json:"task"`
	// Phase is "map" or "reduce".
	Phase string `json:"phase"`
	// Attempt is the 0-based attempt number.
	Attempt int `json:"attempt"`
	// Node is the cluster node that executed the attempt.
	Node string `json:"node"`
	// StartMs/EndMs are millisecond offsets from job submission.
	StartMs int64 `json:"start_ms"`
	EndMs   int64 `json:"end_ms"`
	// Locality is the placement class of winning map attempts.
	Locality string `json:"locality,omitempty"`
	// Backup marks speculative attempts.
	Backup bool `json:"backup,omitempty"`
	// Status is "succeeded", "failed" or "killed" (speculative loser).
	Status string `json:"status"`
	// Error is the failure reason for failed attempts.
	Error string `json:"error,omitempty"`
}

// JobRecord is the JSON form of one finished job: task counts, phase
// walls, counters and every attempt. It is what `gepeto sample
// -report` writes and what History keeps.
type JobRecord struct {
	// Seq orders records within a History.
	Seq int `json:"seq"`
	// Job is the job name.
	Job string `json:"job"`
	// StartUnixMs is the job submission time (Unix milliseconds).
	StartUnixMs int64 `json:"start_unix_ms"`
	// WallMs is the total job wall time in milliseconds.
	WallMs int64 `json:"wall_ms"`
	// MapTasks and ReduceTasks are the task counts.
	MapTasks    int `json:"map_tasks"`
	ReduceTasks int `json:"reduce_tasks"`
	// PhaseMs maps phase name to wall milliseconds.
	PhaseMs map[string]int64 `json:"phase_ms"`
	// Counters are the job counters (group → name → value).
	Counters map[string]map[string]int64 `json:"counters,omitempty"`
	// Attempts are all task attempts, winning and losing.
	Attempts []AttemptRecord `json:"attempts,omitempty"`
	// Nodes are the distinct nodes that ran attempts, sorted.
	Nodes []string `json:"nodes,omitempty"`
}

// Start returns the submission time.
func (r JobRecord) Start() time.Time { return time.UnixMilli(r.StartUnixMs) }

// historyKeep bounds a History to its most recent records. See
// DESIGN §7 for why 64.
const historyKeep = 64

// History keeps the records of the most recent finished jobs in
// memory, numbered in save order. The span tree (package obs/trace) is
// the persisted record of a run; History is its in-process digest for
// callers that want a job's counters and attempts by name. The zero
// value is an empty history. Safe for concurrent use.
type History struct {
	mu   sync.Mutex
	seq  int
	recs []JobRecord
}

// Save numbers the record and keeps it, dropping the oldest record
// beyond the bound.
func (h *History) Save(rec JobRecord) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	rec.Seq = h.seq
	h.recs = append(h.recs, rec)
	if len(h.recs) > historyKeep {
		h.recs = h.recs[1:]
	}
}

// List returns the kept records ordered by sequence number. The error
// is always nil.
func (h *History) List() ([]JobRecord, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]JobRecord(nil), h.recs...), nil
}

// Find returns the most recent record whose job name matches, or whose
// sequence number equals the numeric form of key.
func (h *History) Find(key string) (JobRecord, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	wantSeq, seqErr := strconv.Atoi(key)
	for i := len(h.recs) - 1; i >= 0; i-- {
		if h.recs[i].Job == key || (seqErr == nil && h.recs[i].Seq == wantSeq) {
			return h.recs[i], true
		}
	}
	return JobRecord{}, false
}

// dirFS stores files under a local root directory, mapping DFS-style
// slash paths to the local file tree.
type dirFS struct {
	root string
}

// NewDirFS returns an FS persisting into the local directory root
// (created on demand). It lets traces survive the in-process DFS, so
// `gepeto analyze` can inspect runs after the cluster is gone.
func NewDirFS(root string) FS { return dirFS{root: root} }

func (d dirFS) local(path string) string {
	return filepath.Join(d.root, filepath.FromSlash(path))
}

func (d dirFS) Create(path string, data []byte, _ string) error {
	full := d.local(path)
	if _, err := os.Stat(full); err == nil {
		return fmt.Errorf("obs: %s already exists", path)
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	return os.WriteFile(full, data, 0o644)
}

func (d dirFS) List(dir string) []string {
	full := d.local(dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		out = append(out, dir+"/"+e.Name())
	}
	sort.Strings(out)
	return out
}

func (d dirFS) ReadAll(path string) ([]byte, error) {
	return os.ReadFile(d.local(path))
}
