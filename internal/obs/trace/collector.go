package trace

import (
	"sort"
	"sync"

	"repro/internal/obs"
)

// Collector is an obs.Sink that groups the live event stream by root
// (an outermost pipeline span, or a standalone job) and finalises each
// group into a Tree when its root closes. A root still open is
// assembled on demand, so a run can be read while it executes.
// Finished trees are kept in a bounded in-memory ring and, when a
// Store is attached, persisted so `gepeto analyze` works post-mortem.
//
// Events that arrive after their root closed — a remote worker's
// report of an attempt abandoned after its job finished — no longer
// resolve to a group and are dropped, so closed roots leak nothing.
type Collector struct {
	mu       sync.Mutex
	store    *Store
	maxKept  int
	groups   map[string][]obs.Event
	spanRoot map[string]string // span ID → root key
	jobRoot  map[string]string // job name → root key
	finished []*Tree
	seq      int

	saveErrs    int   // finished trees the store failed to persist
	lastSaveErr error // the most recent such failure
}

// jobRootPrefix keys roots that are standalone jobs rather than spans.
const jobRootPrefix = "job\x00"

// NewCollector creates a collector keeping the most recent maxKept
// finished trees in memory (default 32 when <= 0). store may be nil.
func NewCollector(store *Store, maxKept int) *Collector {
	if maxKept <= 0 {
		maxKept = 32
	}
	return &Collector{
		store:    store,
		maxKept:  maxKept,
		groups:   make(map[string][]obs.Event),
		spanRoot: make(map[string]string),
		jobRoot:  make(map[string]string),
	}
}

// Emit implements obs.Sink.
func (c *Collector) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var root string
	switch e.Type {
	case obs.SpanStart:
		if r, ok := c.spanRoot[e.Parent]; ok && e.Parent != "" {
			root = r
		} else {
			root = e.Span
		}
		c.spanRoot[e.Span] = root
	case obs.SpanEnd:
		r, ok := c.spanRoot[e.Span]
		if !ok {
			return // late event for a closed root
		}
		root = r
	case obs.JobSubmitted:
		if r, ok := c.spanRoot[e.Parent]; ok && e.Parent != "" {
			root = r
		} else {
			root = jobRootPrefix + e.Job
		}
		c.jobRoot[e.Job] = root
	default:
		r, ok := c.jobRoot[e.Job]
		if !ok {
			return // late event for a closed root
		}
		root = r
	}
	c.groups[root] = append(c.groups[root], e)
	if (e.Type == obs.SpanEnd && e.Span == root) ||
		(e.Type == obs.JobFinished && root == jobRootPrefix+e.Job) {
		c.finalizeLocked(root)
	}
}

// finalizeLocked assembles the group into trees, persists them, and
// releases every identity mapping pointing at the root.
func (c *Collector) finalizeLocked(root string) {
	events := c.groups[root]
	delete(c.groups, root)
	for id, r := range c.spanRoot {
		if r == root {
			delete(c.spanRoot, id)
		}
	}
	for job, r := range c.jobRoot {
		if r == root {
			delete(c.jobRoot, job)
		}
	}
	for _, t := range Assemble(events) {
		c.seq++
		t.Seq = c.seq
		if c.store != nil {
			// Store.Save assigns the persistent sequence number. A tree it
			// fails to write stays in the ring; the failure is counted.
			if _, err := c.store.Save(t); err != nil {
				c.saveErrs++
				c.lastSaveErr = err
			}
		}
		c.finished = append(c.finished, t)
		if len(c.finished) > c.maxKept {
			c.finished = c.finished[len(c.finished)-c.maxKept:]
		}
	}
}

// SaveErrors reports how many finished trees the store failed to
// persist, and the most recent failure.
func (c *Collector) SaveErrors() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveErrs, c.lastSaveErr
}

// Finished returns the in-memory finished trees, oldest first.
func (c *Collector) Finished() []*Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Tree(nil), c.finished...)
}

// Live assembles the trees of the roots still open, oldest first.
// Their unclosed spans end at the last event seen beneath them and
// keep status running.
func (c *Collector) Live() []*Tree {
	c.mu.Lock()
	groups := make([][]obs.Event, 0, len(c.groups))
	for _, evs := range c.groups {
		// Emit only ever appends, so the events below len stay as they
		// are after the lock is released.
		groups = append(groups, evs)
	}
	c.mu.Unlock()
	var out []*Tree
	for _, evs := range groups {
		out = append(out, Assemble(evs)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixMs != out[j].StartUnixMs {
			return out[i].StartUnixMs < out[j].StartUnixMs
		}
		return out[i].Root.Name < out[j].Root.Name
	})
	return out
}

// Find returns the tree key names — by root name, by the name of a job
// inside it, or by sequence number — looking at the open roots first,
// then the finished ring newest first, then the store.
func (c *Collector) Find(key string) (*Tree, bool) {
	if t, ok := findIn(c.Live(), key); ok {
		return t, true
	}
	c.mu.Lock()
	t, ok := findIn(c.finished, key)
	c.mu.Unlock()
	if ok || c.store == nil {
		return t, ok
	}
	return c.store.Find(key)
}
