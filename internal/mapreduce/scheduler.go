// The scheduler layer: one task per spec placed across the cluster's
// slots with locality preference, retried on failure, speculatively
// duplicated on stragglers. It is transport-agnostic — every attempt
// is a single exec.RunTask call, whether that runs a goroutine or
// ships the task to a worker process.

package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// schedule runs one task per spec across the cluster's slots. Tasks
// with preferred hosts are placed data-local when possible, then
// rack-local, then anywhere — the jobtracker's placement policy from
// §III ("keep the computation as close as possible to the data; if the
// work cannot be hosted on the actual node in which the data resides,
// priority is given to neighboring nodes, i.e. belonging to the same
// network rack"). Failed attempts are retried, excluding the node that
// failed, up to maxAttempts; reports[i] is filled for each task, and
// commit(i, res) is called exactly once per task — under the scheduler
// lock, for the winning attempt only.
//
// Slots poll node liveness: when a node dies mid-phase (an RPC worker
// lost, or a test killing nodes), its slots retire, tasks that had
// excluded it become placeable anywhere again, and losing every slot
// fails the phase instead of deadlocking.
func (e *Engine) schedule(job *Job, phase string, alog *attemptLog, specs []TaskSpec, maxAttempts int, counters *Counters, exec Executor, commit func(i int, res TaskResult), reports []TaskReport) error {
	if len(specs) == 0 {
		return nil
	}
	nodes := e.cluster.Alive()
	if len(nodes) == 0 {
		return fmt.Errorf("no alive nodes")
	}
	bus := e.opts.Obs
	// The phase context releases executors still blocked on abandoned
	// attempts (speculative losers, attempts on lost workers) once the
	// phase is decided. The in-process executor ignores it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type pendingTask struct {
		idx      int
		attempt  int
		excluded map[string]bool
		backup   bool // speculative duplicate of a running attempt
	}
	// runState tracks in-flight attempts per task for speculation.
	type runState struct {
		start   time.Time
		nodes   map[string]bool
		active  int
		backups int
	}
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		pending   []*pendingTask
		running   = make(map[int]*runState)
		done      = make([]bool, len(specs))
		failures  = make([]int, len(specs))
		firstErr  error
		remaining = len(specs)
		// attemptSeq allocates attempt numbers per task. Every launch —
		// first try, retry or speculative backup — draws a fresh number,
		// so no two attempts of a task ever collide (a retried backup
		// must not reuse a number the primary already burned).
		attemptSeq = make([]int, len(specs))
		// liveSlots counts slot workers still serving; it only shrinks
		// when a slot retires because its node died. liveNodes tracks
		// which nodes still have serving slots, so exclusion sets can
		// be normalised against the nodes that actually remain.
		liveSlots int
		liveNodes = make(map[string]bool, len(nodes))
	)
	for i := range specs {
		pending = append(pending, &pendingTask{idx: i})
		attemptSeq[i] = 1
	}

	// pickBackupLocked selects the longest-running unduplicated task
	// eligible for a speculative backup on this node.
	pickBackupLocked := func(nodeID string) *pendingTask {
		if e.opts.SpeculativeSlack <= 0 {
			return nil
		}
		bestIdx := -1
		var bestStart time.Time
		for idx, rs := range running {
			if done[idx] || rs.backups > 0 || rs.nodes[nodeID] {
				continue
			}
			if time.Since(rs.start) < e.opts.SpeculativeSlack {
				continue
			}
			if bestIdx < 0 || rs.start.Before(bestStart) {
				bestIdx, bestStart = idx, rs.start
			}
		}
		if bestIdx < 0 {
			return nil
		}
		running[bestIdx].backups++
		counters.Get(CounterGroupScheduler, CounterSpeculativeLaunched).Inc(1)
		attempt := attemptSeq[bestIdx]
		attemptSeq[bestIdx]++
		return &pendingTask{idx: bestIdx, attempt: attempt, backup: true}
	}

	// pickLocked selects the best pending task for a node:
	// data-local > rack-local > any non-excluded.
	rackOf := make(map[string]string, len(nodes))
	for _, n := range nodes {
		rackOf[n.ID] = n.Rack
	}
	pickLocked := func(nodeID string) (*pendingTask, string, int) {
		bestIdx, bestClass := -1, 3
		for i, pt := range pending {
			if pt.excluded[nodeID] {
				continue
			}
			class := 2 // off-rack
			sp := specs[pt.idx].Split
			for _, h := range sp.Hosts {
				if h == nodeID {
					class = 0
					break
				}
				if rackOf[h] == rackOf[nodeID] {
					class = 1
				}
			}
			if len(sp.Hosts) == 0 {
				class = 0 // no locality constraint (reduce tasks)
			}
			if class < bestClass {
				bestClass, bestIdx = class, i
			}
			if bestClass == 0 {
				break
			}
		}
		if bestIdx < 0 {
			return nil, "", 0
		}
		pt := pending[bestIdx]
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		locality := [3]string{"data-local", "rack-local", "off-rack"}[bestClass]
		if len(specs[pt.idx].Split.Hosts) == 0 {
			locality = ""
		}
		return pt, locality, bestClass
	}

	// excludedEverywhereLocked reports whether a task's exclusion set
	// covers every node that still has serving slots.
	excludedEverywhereLocked := func(pt *pendingTask) bool {
		for id := range liveNodes {
			if !pt.excluded[id] {
				return false
			}
		}
		return true
	}

	// retireSlotLocked removes a dead node's slot from the pool. A
	// pending task whose exclusions now cover every surviving node gets
	// them cleared — retrying on a node it once failed on beats
	// deadlocking — and if no slot survives at all, the phase fails
	// rather than waiting for work that can never be placed.
	retireSlotLocked := func(nodeID string) {
		liveSlots--
		delete(liveNodes, nodeID)
		for _, pt := range pending {
			delete(pt.excluded, nodeID)
			if len(pt.excluded) > 0 && excludedEverywhereLocked(pt) {
				pt.excluded = nil
			}
		}
		if liveSlots == 0 && remaining > 0 && firstErr == nil {
			firstErr = fmt.Errorf("all %d nodes lost with %d tasks unfinished", len(nodes), remaining)
		}
		cond.Broadcast()
	}

	localityCounters := [3]string{CounterDataLocal, CounterRackLocal, CounterOffRack}
	var wg sync.WaitGroup
	worker := func(nodeID string) {
		defer wg.Done()
		for {
			mu.Lock()
			var pt *pendingTask
			var locality string
			var class int
			for {
				if firstErr != nil || remaining == 0 {
					mu.Unlock()
					return
				}
				if !e.cluster.IsAlive(nodeID) {
					retireSlotLocked(nodeID)
					mu.Unlock()
					return
				}
				if len(pending) > 0 {
					pt, locality, class = pickLocked(nodeID)
					if pt != nil {
						break
					}
				}
				// No regular work for this node: consider launching a
				// speculative backup of a straggling attempt.
				if bt := pickBackupLocked(nodeID); bt != nil {
					pt, locality = bt, ""
					break
				}
				// Tasks may be requeued by failures or become eligible
				// for speculation; wait for a state change or timeout.
				if e.opts.SpeculativeSlack > 0 {
					// cond.Wait would miss time-based eligibility; poll.
					mu.Unlock()
					time.Sleep(e.opts.SpeculativeSlack / 4)
					mu.Lock()
					continue
				}
				cond.Wait()
			}
			rs := running[pt.idx]
			if rs == nil {
				rs = &runState{start: time.Now(), nodes: make(map[string]bool)}
				running[pt.idx] = rs
			}
			rs.active++
			rs.nodes[nodeID] = true
			mu.Unlock()

			tid := specs[pt.idx].TaskID
			if bus.Active() {
				bus.Emit(obs.Event{
					Type: obs.TaskScheduled, Job: job.Name, Phase: phase, Task: tid,
					Attempt: pt.attempt, Node: nodeID, Locality: locality, Backup: pt.backup,
				})
			}
			if e.opts.NodeDelay != nil {
				if d := e.opts.NodeDelay(nodeID); d > 0 {
					time.Sleep(d)
				}
			}
			taskStart := time.Now()
			if bus.Active() {
				bus.Emit(obs.Event{
					Type: obs.AttemptStarted, Job: job.Name, Phase: phase, Task: tid,
					Attempt: pt.attempt, Node: nodeID, Locality: locality, Backup: pt.backup,
					Time: taskStart,
				})
			}
			spec := specs[pt.idx]
			spec.Attempt = pt.attempt
			spec.Node = nodeID
			res, err := exec.RunTask(ctx, spec)
			taskEnd := time.Now()
			// The retry branch below bumps pt.attempt for requeueing;
			// the record and event for THIS attempt keep its own number.
			attemptNo, wasBackup := pt.attempt, pt.backup

			mu.Lock()
			rs.active--
			var status string
			switch {
			case done[pt.idx]:
				// A parallel attempt already won; discard this result.
				// This is the losing attempt's single terminal transition,
				// so the kill event below fires exactly once per loser.
				status = "killed"
				counters.Get(CounterGroupScheduler, CounterSpeculativeWasted).Inc(1)
			case err == nil:
				status = "succeeded"
				done[pt.idx] = true
				delete(running, pt.idx)
				commit(pt.idx, res)
				reports[pt.idx].ID = tid
				reports[pt.idx].Node = nodeID
				reports[pt.idx].Attempts = pt.attempt + 1
				reports[pt.idx].Locality = locality
				reports[pt.idx].Duration = taskEnd.Sub(taskStart)
				reports[pt.idx].StartOffset = taskStart.Sub(alog.t0)
				reports[pt.idx].FailedAttempts = failures[pt.idx]
				if locality != "" {
					counters.Get(CounterGroupScheduler, localityCounters[class]).Inc(1)
				}
				remaining--
			case rs.active > 0:
				// Another attempt of this task is still running; let it
				// decide the task's fate. A failed backup releases its
				// speculation slot so a still-straggling primary can
				// receive another backup later.
				status = "failed"
				failures[pt.idx]++
				if pt.backup {
					rs.backups--
				}
			case failures[pt.idx]+1 >= maxAttempts:
				status = "failed"
				failures[pt.idx]++
				if firstErr == nil {
					firstErr = fmt.Errorf("task failed after %d attempts: %v", failures[pt.idx], err)
				}
			default:
				// Retry on another node, like the jobtracker does, under
				// a fresh attempt number that cannot collide with any
				// attempt already launched (including backups).
				status = "failed"
				failures[pt.idx]++
				delete(running, pt.idx)
				if pt.excluded == nil {
					pt.excluded = make(map[string]bool)
				}
				if len(pt.excluded) < len(nodes)-1 {
					pt.excluded[nodeID] = true
					if excludedEverywhereLocked(pt) {
						// Mid-phase node loss shrank the pool below the
						// guard's phase-start count; keep the task
						// placeable.
						pt.excluded = nil
					}
				}
				pt.attempt = attemptSeq[pt.idx]
				attemptSeq[pt.idx]++
				pt.backup = false
				pending = append(pending, pt)
			}
			if alog != nil {
				rec := obs.AttemptRecord{
					Task: tid, Phase: phase, Attempt: attemptNo, Node: nodeID,
					StartMs:  taskStart.Sub(alog.t0).Milliseconds(),
					EndMs:    taskEnd.Sub(alog.t0).Milliseconds(),
					Locality: locality, Backup: wasBackup, Status: status,
				}
				if err != nil && status == "failed" {
					rec.Error = err.Error()
				}
				alog.add(rec)
			}
			if bus.Active() {
				evType := obs.AttemptSucceeded
				switch status {
				case "failed":
					evType = obs.AttemptFailed
				case "killed":
					evType = obs.AttemptKilled
				}
				ev := obs.Event{
					Type: evType, Job: job.Name, Phase: phase, Task: tid,
					Attempt: attemptNo, Node: nodeID, Locality: locality, Backup: wasBackup,
					Time: taskEnd, Dur: taskEnd.Sub(taskStart),
				}
				if err != nil && status == "failed" {
					ev.Err = err.Error()
				}
				bus.Emit(ev)
			}
			cond.Broadcast()
			mu.Unlock()
		}
	}

	// Register every node before the first worker starts: workers read
	// liveSlots and liveNodes (under mu) as soon as an attempt fails.
	for _, n := range nodes {
		liveSlots += n.Slots
		liveNodes[n.ID] = true
	}
	for _, n := range nodes {
		for s := 0; s < n.Slots; s++ {
			wg.Add(1)
			go worker(n.ID)
		}
	}
	// Return as soon as every task has a winning attempt (or the job
	// failed) rather than joining all workers: a speculative loser may
	// still be executing, and — like Hadoop killing the slower attempt
	// — we abandon it. Losers never commit, so letting them drain in
	// the background is safe; they exit at their next loop iteration.
	mu.Lock()
	for remaining > 0 && firstErr == nil {
		cond.Wait()
	}
	err := firstErr
	mu.Unlock()
	if e.opts.SpeculativeSlack == 0 && !exec.External() {
		// Without speculation there are no abandoned losers; joining
		// the workers keeps goroutine accounting exact. (An external
		// executor may still be blocked on a lost worker's attempt;
		// the cancelled phase context unblocks it asynchronously.)
		wg.Wait()
	}
	return err
}
