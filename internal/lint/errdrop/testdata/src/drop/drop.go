// Package drop exercises the errdrop analyzer: discarded errors from
// the DFS/obs/recordio storage surface are flagged; handled errors and
// non-storage calls are accepted.
package drop

import (
	"context"
	"strconv"
	"time"

	"repro/internal/cluster/rpc"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/recordio"
)

func dropDFS(fs *dfs.FileSystem, path string) {
	fs.Delete(path)             // want `error returned by \(\*dfs\.FileSystem\)\.Delete is discarded`
	_ = fs.Delete(path)         // want `error returned by \(\*dfs\.FileSystem\)\.Delete is assigned to _`
	data, _ := fs.ReadAll(path) // want `error returned by \(\*dfs\.FileSystem\)\.ReadAll is assigned to _`
	_ = data
	go fs.Delete(path)    // want `unobservable in a go statement`
	defer fs.Delete(path) // want `unobservable in a defer`
}

func handleDFS(fs *dfs.FileSystem, path string) error {
	if err := fs.Delete(path); err != nil {
		return err
	}
	data, err := fs.ReadAll(path)
	if err != nil {
		return err
	}
	_ = data
	return nil
}

func dropObs(store obs.FS) {
	store.Create("p", nil, "")     // want `error returned by \(obs\.FS\)\.Create is discarded`
	_ = store.Create("p", nil, "") // want `error returned by \(obs\.FS\)\.Create is assigned to _`
}

func handleObs(store obs.FS) error {
	return store.Create("p", nil, "")
}

func dropScan(data []byte) {
	recordio.ScanAll(data, func(k, v string) error { return nil }) // want `error returned by recordio\.ScanAll is discarded`
}

func handleScan(data []byte) error {
	return recordio.ScanAll(data, func(k, v string) error { return nil })
}

func dropRPC(tr rpc.Transport, mem *rpc.MemNetwork, u *rpc.Unreliable, rs *rpc.RemoteStore, st dfs.Store) {
	tr.Call("a", "m", nil, nil)        // want `error returned by \(rpc\.Transport\)\.Call is discarded`
	_ = mem.Call("a", "m", nil, nil)   // want `error returned by \(\*rpc\.MemNetwork\)\.Call is assigned to _`
	go u.Call("a", "m", nil, nil)      // want `unobservable in a go statement`
	rs.Create("p", nil, "")            // want `error returned by \(\*rpc\.RemoteStore\)\.Create is discarded`
	st.Create("p", nil, "")            // want `error returned by \(dfs\.Store\)\.Create is discarded`
	data, _ := st.ReadRange("p", 0, 1) // want `error returned by \(dfs\.Store\)\.ReadRange is assigned to _`
	_ = data
	rpc.Serve(nil, nil) // want `error returned by rpc\.Serve is discarded`
}

func handleRPC(tr rpc.Transport, rs *rpc.RemoteStore, st dfs.Store) error {
	if err := tr.Call("a", "m", nil, nil); err != nil {
		return err
	}
	if err := rs.Create("p", nil, ""); err != nil {
		return err
	}
	data, err := st.ReadRange("p", 0, 1)
	_ = data
	return err
}

func dropCluster(jt *rpc.Jobtracker, w *rpc.Worker, srv *obs.StatusServer) {
	jt.WaitForWorkers(4, time.Second)        // want `error returned by \(\*rpc\.Jobtracker\)\.WaitForWorkers is discarded`
	go w.Run()                               // want `unobservable in a go statement`
	_ = srv.Close()                          // want `error returned by \(\*obs\.StatusServer\)\.Close is assigned to _`
	defer srv.Shutdown(context.Background()) // want `unobservable in a defer`
	_, _ = obs.NewLevelLogger("debug")       // want `error returned by obs\.NewLevelLogger is assigned to _`
}

func handleCluster(jt *rpc.Jobtracker, w *rpc.Worker, srv *obs.StatusServer, fed *rpc.Federation) error {
	if err := jt.WaitForWorkers(4, time.Second); err != nil {
		return err
	}
	go func() {
		if err := w.Run(); err != nil {
			panic(err)
		}
	}()
	logger, err := obs.NewLevelLogger("info")
	if err != nil {
		return err
	}
	_ = logger
	// Federation.Apply reports staleness as a bool, not an error: out
	// of errdrop's scope even though the type is on the watch list.
	fed.Apply("n1", 7)
	return srv.Shutdown(context.Background())
}

// otherPackages is out of scope: strconv is not a storage layer.
func otherPackages(s string) {
	strconv.Atoi(s)
	n, _ := strconv.Atoi(s)
	_ = n
}
