// The two cluster-specific commands: `gepeto worker` is one
// tasktracker process, `gepeto cluster` renders a deployment's live
// worker table. Any pipeline command run with -workers N is the
// jobtracker (see deploy): one process owning the namenode (DFS) and
// scheduler, N worker processes executing tasks, all task
// input/intermediate/output bytes crossing process boundaries.
//
//	gepeto attack -in data -workers 3 -addr-file jt.addr &
//	gepeto worker -node node-00 -addr-file jt.addr &
//	gepeto worker -node node-01 -addr-file jt.addr &
//	gepeto worker -node node-02 -addr-file jt.addr &
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster/rpc"
	"repro/internal/obs"
)

// resolveJTAddr returns the jobtracker address from -jobtracker or,
// when set, by polling -addr-file until the jobtracker writes it.
func resolveJTAddr(addr, addrFile string, timeout time.Duration) (string, error) {
	if addr != "" {
		return addr, nil
	}
	if addrFile == "" {
		return "", fmt.Errorf("one of -jobtracker or -addr-file is required")
	}
	deadline := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil {
			if s := strings.TrimSpace(string(data)); s != "" {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no jobtracker address in %s after %v", addrFile, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	node := fs.String("node", "", "cluster node ID this worker serves (e.g. node-00); required")
	slots := fs.Int("slots", 4, "concurrent task slots")
	jtAddr := fs.String("jobtracker", "", "jobtracker address (host:port)")
	addrFile := fs.String("addr-file", "", "file to read the jobtracker address from (written by the command run with `-workers -addr-file`)")
	listen := fs.String("listen", "127.0.0.1:0", "address to listen on for task assignments")
	heartbeat := fs.Duration("heartbeat", 250*time.Millisecond, "heartbeat period")
	overhead := fs.Duration("task-overhead", 0, "artificial per-task startup sleep (fault-drill pacing)")
	logLevel := fs.String("log-level", "warn", "structured log level (debug|info|warn|error|off)")
	clockSkew := fs.Duration("clock-skew", 0, "artificial offset added to this worker's clock (drill for the jobtracker's clock alignment)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" {
		return fmt.Errorf("-node is required")
	}
	logger, err := obs.NewLevelLogger(*logLevel)
	if err != nil {
		return err
	}
	jt, err := resolveJTAddr(*jtAddr, *addrFile, 10*time.Second)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	w := rpc.NewWorker(rpc.WorkerConfig{
		Node: *node, Slots: *slots,
		Transport:      &rpc.TCPNetwork{},
		JobtrackerAddr: jt,
		Addr:           ln.Addr().String(),
		HeartbeatEvery: *heartbeat,
		TaskOverhead:   *overhead,
		Logger:         logger.With("worker", *node),
		ClockSkew:      *clockSkew,
	})
	go func() {
		// Serve returns when the listener closes at process exit.
		if serr := rpc.Serve(ln, w.Server()); serr != nil {
			return
		}
	}()
	fmt.Fprintf(os.Stderr, "worker %s: %d slots, listening on %s, jobtracker %s\n",
		*node, *slots, ln.Addr(), jt)
	if err := w.Run(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "worker %s: stopped (ran %d tasks)\n", *node, w.TasksRun())
	return nil
}

// cmdCluster renders a live jobtracker's /cluster.json as the worker
// table — heartbeat ages, busy slots, in-flight attempts, per-worker
// task and RPC tallies, clock offsets, and lost workers.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	status := fs.String("status", "", "jobtracker status server address (host:port)")
	statusFile := fs.String("status-file", "", "file to read the status address from (written by `-status-file`)")
	asJSON := fs.Bool("json", false, "print the raw cluster state JSON instead of the table")
	timeout := fs.Duration("timeout", 5*time.Second, "HTTP request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addr, err := resolveJTAddr(*status, *statusFile, *timeout)
	if err != nil {
		return fmt.Errorf("resolving status address: %w (pass -status or -status-file)", err)
	}
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get("http://" + addr + "/cluster.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /cluster.json: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if *asJSON {
		fmt.Print(string(body))
		return nil
	}
	var st rpc.ClusterState
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decoding cluster state: %v", err)
	}
	fmt.Print(rpc.RenderClusterTable(st))
	return nil
}
