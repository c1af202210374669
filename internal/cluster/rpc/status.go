package rpc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// WorkerStatus is one registered worker's row in the cluster view.
type WorkerStatus struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
	// HeartbeatAgeMs is how long ago the last heartbeat landed.
	HeartbeatAgeMs int64 `json:"heartbeat_age_ms"`
	SlotsBusy      int   `json:"slots_busy"`
	SlotsTotal     int   `json:"slots_total"`
	// InFlight is how many assigned attempts the jobtracker is still
	// waiting on for this worker.
	InFlight    int   `json:"in_flight"`
	TasksDone   int64 `json:"tasks_done"`
	TasksFailed int64 `json:"tasks_failed"`
	// RPCCalls/RPCErrors come from the worker's federated
	// rpc_client_calls_total series: total client calls it has made,
	// and how many did not return ok.
	RPCCalls  int64 `json:"rpc_calls"`
	RPCErrors int64 `json:"rpc_errors"`
	UptimeMs  int64 `json:"uptime_ms"`
}

// LostWorker is one departed worker's row.
type LostWorker struct {
	Node   string `json:"node"`
	Addr   string `json:"addr"`
	Reason string `json:"reason"`
	AgoMs  int64  `json:"ago_ms"`
}

// ClusterState is the jobtracker's live membership view, served on
// /cluster.json and rendered by `gepeto cluster`.
type ClusterState struct {
	Workers        []WorkerStatus `json:"workers"`
	Lost           []LostWorker   `json:"lost,omitempty"`
	DupCompletions int64          `json:"dup_completions"`
	DupDFSCreates  int64          `json:"dup_dfs_creates"`
	FedStaleDrops  int64          `json:"fed_stale_drops"`
	UptimeMs       int64          `json:"uptime_ms"`
}

// ClusterState snapshots the current membership view.
func (jt *Jobtracker) ClusterState() ClusterState {
	now := time.Now()
	jt.mu.Lock()
	inflight := make(map[string]int)
	for _, p := range jt.pending {
		inflight[p.node]++
	}
	st := ClusterState{
		DupCompletions: jt.dupCompletions.Load(),
		DupDFSCreates:  jt.dupDFSCreates.Load(),
		UptimeMs:       now.Sub(jt.started).Milliseconds(),
	}
	for id, w := range jt.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			Node:           id,
			Addr:           w.addr,
			HeartbeatAgeMs: now.Sub(w.lastBeat).Milliseconds(),
			SlotsBusy:      w.busy,
			SlotsTotal:     w.slots,
			InFlight:       inflight[id],
			TasksDone:      w.tasksDone,
			TasksFailed:    w.tasksFailed,
			UptimeMs:       now.Sub(w.joined).Milliseconds(),
		})
	}
	for _, l := range jt.lost {
		st.Lost = append(st.Lost, LostWorker{
			Node: l.node, Addr: l.addr, Reason: l.reason, AgoMs: now.Sub(l.at).Milliseconds(),
		})
	}
	jt.mu.Unlock()
	st.FedStaleDrops = jt.fed.StaleDrops()
	// RPC call/error rates come out of the federated worker snapshots.
	for i := range st.Workers {
		for _, p := range jt.fed.Worker(st.Workers[i].Node) {
			if p.Name != "rpc_client_calls_total" {
				continue
			}
			st.Workers[i].RPCCalls += p.Value
			if p.Labels["status"] != "ok" {
				st.Workers[i].RPCErrors += p.Value
			}
		}
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Node < st.Workers[j].Node })
	sort.Slice(st.Lost, func(i, j int) bool { return st.Lost[i].Node < st.Lost[j].Node })
	return st
}

// RenderClusterTable renders the state as the fixed-width table shown
// by `gepeto cluster` and GET /cluster.
func RenderClusterTable(st ClusterState) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cluster: %d workers, %d lost (jobtracker up %s)\n",
		len(st.Workers), len(st.Lost), time.Duration(st.UptimeMs)*time.Millisecond)
	fmt.Fprintf(&sb, "%-10s %-22s %9s %7s %9s %6s %7s %9s %8s\n",
		"WORKER", "ADDR", "BEAT-AGE", "SLOTS", "IN-FLIGHT", "DONE", "FAILED", "RPC-CALLS", "RPC-ERR%")
	for _, w := range st.Workers {
		errRate := "0.0%"
		if w.RPCCalls > 0 {
			errRate = fmt.Sprintf("%.1f%%", 100*float64(w.RPCErrors)/float64(w.RPCCalls))
		}
		fmt.Fprintf(&sb, "%-10s %-22s %8dms %3d/%-3d %9d %6d %7d %9d %8s\n",
			w.Node, w.Addr, w.HeartbeatAgeMs, w.SlotsBusy, w.SlotsTotal, w.InFlight,
			w.TasksDone, w.TasksFailed, w.RPCCalls, errRate)
	}
	for _, l := range st.Lost {
		fmt.Fprintf(&sb, "%-10s %-22s lost %s ago (%s)\n",
			l.Node, l.Addr, time.Duration(l.AgoMs)*time.Millisecond, l.Reason)
	}
	fmt.Fprintf(&sb, "dup completions: %d  dup dfs creates: %d  stale metric drops: %d\n",
		st.DupCompletions, st.DupDFSCreates, st.FedStaleDrops)
	return sb.String()
}

// ClusterHandler serves the live view: a plain-text table on /cluster
// and the raw ClusterState on /cluster.json (any path ending in
// ".json" selects JSON, so one handler backs both routes).
func (jt *Jobtracker) ClusterHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := jt.ClusterState()
		if strings.HasSuffix(r.URL.Path, ".json") {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprint(w, RenderClusterTable(st))
	})
}
