package trace

import (
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// TraceDir is the directory trace trees are stored under.
const TraceDir = "_trace"

// Store persists assembled trace trees in an obs.FS (the simulated DFS
// or a local mirror directory), one JSON file per tree, numbered so a
// later process continues the sequence. Safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	fs  obs.FS
	seq int // next sequence number; 0 = not yet initialised
}

// NewStore creates a trace store over the given backend.
func NewStore(fs obs.FS) *Store { return &Store{fs: fs} }

// tracePath builds "_trace/000042-rootname.json".
func tracePath(seq int, root string) string {
	return fmt.Sprintf("%s/%06d-%s.json", TraceDir, seq, strings.ReplaceAll(root, "/", "_"))
}

func (s *Store) nextSeqLocked() int {
	if s.seq == 0 {
		max := 0
		for _, p := range s.fs.List(TraceDir) {
			base := path.Base(p)
			if i := strings.IndexByte(base, '-'); i > 0 {
				if n, err := strconv.Atoi(base[:i]); err == nil && n > max {
					max = n
				}
			}
		}
		s.seq = max + 1
	}
	n := s.seq
	s.seq++
	return n
}

// Save assigns the tree a sequence number and persists it, returning
// the path written.
func (s *Store) Save(t *Tree) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Seq = s.nextSeqLocked()
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	p := tracePath(t.Seq, t.Root.Name)
	if err := s.fs.Create(p, data, ""); err != nil {
		return "", fmt.Errorf("trace: saving tree: %v", err)
	}
	return p, nil
}

// List returns every stored tree ordered by sequence number,
// skipping unparseable files.
func (s *Store) List() ([]*Tree, error) {
	var out []*Tree
	for _, p := range s.fs.List(TraceDir) {
		data, err := s.fs.ReadAll(p)
		if err != nil {
			continue
		}
		var t Tree
		if err := json.Unmarshal(data, &t); err != nil || t.Root == nil {
			continue
		}
		out = append(out, &t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Find returns the most recent stored tree whose root name matches
// key, that contains a job named key, or whose sequence number equals
// the numeric form of key.
func (s *Store) Find(key string) (*Tree, bool) {
	trees, err := s.List()
	if err != nil {
		return nil, false
	}
	return findIn(trees, key)
}

// findIn scans trees newest-first for a root-name, contained-job-name
// or sequence-number match.
func findIn(trees []*Tree, key string) (*Tree, bool) {
	wantSeq, seqErr := strconv.Atoi(key)
	for i := len(trees) - 1; i >= 0; i-- {
		t := trees[i]
		if t.Root.Name == key || (seqErr == nil && t.Seq == wantSeq) {
			return t, true
		}
		if t.Root.Job(key) != nil {
			return t, true
		}
	}
	return nil, false
}
