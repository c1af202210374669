// The scheduler layer: a phase decides every attempt's fate — launch,
// win, failure, retry, kill — under one lock, so when it returns its
// share of the Result is final and an abandoned attempt whose RunTask
// returns later touches nothing. Every attempt is one Executor.RunTask
// call, whether that runs a goroutine or ships the task to a worker.

package mapreduce

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// phase is one map or reduce phase of a job: runPhase builds it, run
// drives it to a decision.
type phase struct {
	e           *Engine
	job         *Job
	name        string // "map" or "reduce"
	specs       []TaskSpec
	maxAttempts int
	exec        Executor
	res         *Result // receives scheduler counters and attempt records
	// commit is called under mu once per task, for the winning attempt.
	commit func(i int, tr TaskResult, rep TaskReport)

	// Scheduling state, guarded by mu.
	mu        sync.Mutex
	cond      *sync.Cond
	tasks     []taskState
	queue     []int             // tasks waiting for a slot, FIFO
	rackOf    map[string]string // node → rack, for nodes alive at phase start
	liveSlots int
	remaining int   // tasks without a winning attempt
	err       error // set once, when the phase fails
	timer     *time.Timer
}

type taskState struct {
	running  []*attempt      // in flight; a decided task has none
	excluded map[string]bool // nodes an attempt failed on, avoided by later ones
	failures int
	next     int // next attempt number; every launch draws one, so it counts them
}

type attempt struct {
	task, no int
	node     string
	class    int // index into localities; -1 for none
	backup   bool
	start    time.Time
}

func (a *attempt) locality() string {
	if a.class < 0 {
		return ""
	}
	return localities[a.class].name
}

// localities are the placement classes, best first, with the counter
// each one's winning attempts tick.
var localities = [3]struct{ name, counter string }{
	{"data-local", CounterDataLocal}, {"rack-local", CounterRackLocal}, {"off-rack", CounterOffRack},
}

// run places the phase's tasks on the cluster's slots and returns once
// every task has a winner or the phase failed. Placement is data-local,
// then rack-local (§III: "priority is given to neighboring nodes"),
// then anywhere; a failed attempt is retried elsewhere, up to
// maxAttempts. Idle slots block in one cond.Wait, woken by state
// changes and, with SpeculativeSlack set, by a timer armed for the
// earliest deadline at which a straggler earns a backup. A slot whose
// node died retires; losing every slot fails the phase.
func (p *phase) run() error {
	if len(p.specs) == 0 {
		return nil
	}
	nodes := p.e.cluster.Alive()
	if len(nodes) == 0 {
		return fmt.Errorf("no alive nodes")
	}
	// The phase context releases executors still blocked on abandoned
	// attempts (speculative losers, attempts on lost workers) once the
	// phase is decided.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.cond = sync.NewCond(&p.mu)
	p.tasks = make([]taskState, len(p.specs))
	for i := range p.specs {
		p.queue = append(p.queue, i)
	}
	p.remaining = len(p.specs)
	p.rackOf = make(map[string]string, len(nodes))
	for _, n := range nodes {
		p.rackOf[n.ID] = n.Rack
		p.liveSlots += n.Slots
	}
	var wg sync.WaitGroup
	for _, n := range nodes {
		for range n.Slots {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.slot(ctx, n.ID)
			}()
		}
	}
	p.mu.Lock()
	for p.remaining > 0 && p.err == nil {
		p.cond.Wait()
	}
	err := p.err
	p.armLocked() // stops the timer
	p.mu.Unlock()
	// The phase does not wait for an abandoned attempt. In-process
	// without speculation there is none, and joining the slots keeps
	// goroutine accounting exact.
	if p.e.opts.SpeculativeSlack == 0 && !p.exec.External() {
		wg.Wait()
	}
	return err
}

// slot is one task slot on node: it runs attempts until the phase is
// decided or the node dies.
func (p *phase) slot(ctx context.Context, node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		a := p.takeLocked(node)
		if a == nil {
			return
		}
		spec := p.specs[a.task]
		spec.Attempt, spec.Node = a.no, node
		p.mu.Unlock()
		tr, err := p.exec.RunTask(ctx, spec)
		p.mu.Lock()
		p.endLocked(a, tr, err)
	}
}

// takeLocked waits until node's slot has an attempt to run — a queued
// task first, else a speculative backup — and launches it. It returns
// nil once the phase is decided or the node is dead.
func (p *phase) takeLocked(node string) *attempt {
	for p.err == nil && p.remaining > 0 {
		if !p.e.cluster.IsAlive(node) {
			p.retireLocked(node)
			return nil
		}
		a := p.pickLocked(node)
		if a == nil {
			a = p.pickBackupLocked(node)
		}
		if a == nil {
			p.cond.Wait()
			continue
		}
		t := &p.tasks[a.task]
		a.no, a.start = t.next, time.Now()
		t.next++
		t.running = append(t.running, a)
		// Emitted under the lock, so a start always precedes its end.
		if bus := p.e.opts.Obs; bus.Active() {
			bus.Emit(obs.Event{
				Type: obs.AttemptStarted, Job: p.job.Name, Phase: p.name, Task: p.specs[a.task].TaskID,
				Attempt: a.no, Node: node, Locality: a.locality(), Backup: a.backup, Time: a.start,
			})
		}
		p.armLocked()
		return a
	}
	return nil
}

// pickLocked dequeues the best queued task for node: data-local >
// rack-local > any node the task has not failed on.
func (p *phase) pickLocked(node string) *attempt {
	best, bestClass := -1, len(localities)
	for qi, i := range p.queue {
		if p.tasks[i].excluded[node] {
			continue
		}
		hosts := p.specs[i].Split.Hosts
		class := 2
		if len(hosts) == 0 {
			class = -1 // no locality constraint (reduce tasks)
		}
		for _, h := range hosts {
			if h == node {
				class = 0
				break
			}
			if p.rackOf[h] == p.rackOf[node] {
				class = 1
			}
		}
		if class < bestClass {
			best, bestClass = qi, class
		}
		if bestClass <= 0 {
			break
		}
	}
	if best < 0 {
		return nil
	}
	i := p.queue[best]
	p.queue = slices.Delete(p.queue, best, best+1)
	return &attempt{task: i, node: node, class: bestClass}
}

// pickBackupLocked picks, for a backup on node, the task whose
// speculation deadline passed longest ago and that node may run.
func (p *phase) pickBackupLocked(node string) *attempt {
	if p.e.opts.SpeculativeSlack <= 0 {
		return nil
	}
	best, now := -1, time.Now()
	var bestDeadline time.Time
	for i := range p.tasks {
		t := &p.tasks[i]
		d, ok := p.deadline(t)
		if !ok || d.After(now) || t.excluded[node] || t.running[0].node == node {
			continue
		}
		if best < 0 || d.Before(bestDeadline) {
			best, bestDeadline = i, d
		}
	}
	if best < 0 {
		return nil
	}
	p.res.Counters.Get(CounterGroupScheduler, CounterSpeculativeLaunched).Inc(1)
	return &attempt{task: best, node: node, class: -1, backup: true}
}

// deadline reports when a task becomes eligible for a backup: the slack
// after the start of its only attempt in flight, if that is no backup.
func (p *phase) deadline(t *taskState) (time.Time, bool) {
	if len(t.running) != 1 || t.running[0].backup {
		return time.Time{}, false
	}
	return t.running[0].start.Add(p.e.opts.SpeculativeSlack), true
}

// endLocked decides the fate of an attempt whose RunTask returned. An
// attempt no longer in flight was killed while it ran (its task won,
// or the phase failed) and recorded then; nothing of it is kept.
func (p *phase) endLocked(a *attempt, tr TaskResult, err error) {
	t := &p.tasks[a.task]
	i := slices.Index(t.running, a)
	if i < 0 {
		return
	}
	defer p.cond.Broadcast()
	defer p.armLocked()
	now := time.Now()
	t.running = slices.Delete(t.running, i, i+1)
	if err == nil {
		p.remaining--
		p.commit(a.task, tr, TaskReport{
			ID: p.specs[a.task].TaskID, Node: a.node, Attempts: t.next, Locality: a.locality(),
			Duration: now.Sub(a.start), StartOffset: a.start.Sub(p.res.Start), FailedAttempts: t.failures,
		})
		if a.class >= 0 {
			p.res.Counters.Get(CounterGroupScheduler, localities[a.class].counter).Inc(1)
		}
		p.recordLocked(a, now, "succeeded", nil)
		p.killLocked(t, now)
		return
	}
	t.failures++
	p.recordLocked(a, now, "failed", err)
	// Exclude the failing node unless that leaves the task nowhere to
	// run (unexcludeLocked covers nodes lost since the phase started).
	if len(t.excluded) < len(p.rackOf)-1 {
		if t.excluded == nil {
			t.excluded = make(map[string]bool)
		}
		t.excluded[a.node] = true
		p.unexcludeLocked(t)
	}
	switch {
	case isPermanent(err):
		// Every attempt would fail the same way, a backup in flight too.
		p.failLocked(fmt.Errorf("task failed: %v", err))
	case len(t.running) > 0:
		// Another attempt still runs and decides the task's fate; a
		// failed backup leaves its primary eligible for another one.
	case t.failures >= p.maxAttempts:
		p.failLocked(fmt.Errorf("task failed after %d attempts: %v", t.failures, err))
	default:
		p.queue = append(p.queue, a.task)
	}
}

// failLocked fails the phase with err and kills every attempt still in
// flight.
func (p *phase) failLocked(err error) {
	p.err = err
	now := time.Now()
	for i := range p.tasks {
		p.killLocked(&p.tasks[i], now)
	}
	p.cond.Broadcast()
}

// killLocked records every attempt of t still in flight killed (a
// failed phase's counters are discarded with its Result).
func (p *phase) killLocked(t *taskState, now time.Time) {
	for _, a := range t.running {
		p.res.Counters.Get(CounterGroupScheduler, CounterSpeculativeWasted).Inc(1)
		p.recordLocked(a, now, "killed", nil)
	}
	t.running = nil
}

// recordLocked appends an attempt's terminal record to the result and
// emits its terminal event, which carries the attempts its task has
// launched (for a winner, the count its TaskReport holds).
func (p *phase) recordLocked(a *attempt, end time.Time, status string, err error) {
	rec := obs.AttemptRecord{
		Task: p.specs[a.task].TaskID, Phase: p.name, Attempt: a.no, Node: a.node,
		StartMs:  a.start.Sub(p.res.Start).Milliseconds(),
		EndMs:    end.Sub(p.res.Start).Milliseconds(),
		Locality: a.locality(), Backup: a.backup, Status: status,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	p.res.Attempts = append(p.res.Attempts, rec)
	if bus := p.e.opts.Obs; bus.Active() {
		bus.Emit(obs.Event{
			Type: attemptEvents[status], Job: p.job.Name, Phase: p.name, Task: rec.Task,
			Attempt: a.no, Node: a.node, Locality: rec.Locality, Backup: a.backup,
			Time: end, Dur: end.Sub(a.start), Value: int64(p.tasks[a.task].next), Err: rec.Error,
		})
	}
}

var attemptEvents = map[string]obs.EventType{
	"succeeded": obs.AttemptSucceeded, "failed": obs.AttemptFailed, "killed": obs.AttemptKilled,
}

// armLocked points the speculation timer at the earliest deadline
// still ahead, or stops it once there is none (a decided phase has no
// attempt in flight). A deadline already passed is not re-armed: the
// slots saw it when they last woke, and one none of them could take
// waits for the next state change. Without speculation there is no
// timer.
func (p *phase) armLocked() {
	if p.e.opts.SpeculativeSlack <= 0 {
		return
	}
	var next time.Time
	now := time.Now()
	for i := range p.tasks {
		if d, ok := p.deadline(&p.tasks[i]); ok && d.After(now) && (next.IsZero() || d.Before(next)) {
			next = d
		}
	}
	switch {
	case next.IsZero():
		if p.timer != nil {
			p.timer.Stop()
		}
	case p.timer == nil:
		p.timer = time.AfterFunc(time.Until(next), func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.armLocked()
			p.mu.Unlock()
		})
	default:
		p.timer.Reset(time.Until(next))
	}
}

// unexcludeLocked clears a task's exclusions once they cover every
// live node: retrying on a node it once failed on beats deadlocking.
func (p *phase) unexcludeLocked(t *taskState) {
	for id := range p.rackOf {
		if !t.excluded[id] && p.e.cluster.IsAlive(id) {
			return
		}
	}
	t.excluded = nil
}

// retireLocked removes a dead node's slot from the pool; if no slot
// survives, the phase fails rather than wait for work that can never
// be placed.
func (p *phase) retireLocked(node string) {
	p.liveSlots--
	for i := range p.tasks {
		if t := &p.tasks[i]; len(t.excluded) > 0 {
			delete(t.excluded, node)
			p.unexcludeLocked(t)
		}
	}
	if p.liveSlots == 0 {
		p.failLocked(fmt.Errorf("all %d nodes lost with %d tasks unfinished", len(p.rackOf), p.remaining))
	}
	p.cond.Broadcast()
}
