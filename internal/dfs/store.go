package dfs

import "fmt"

// Store is the narrow storage surface task execution needs: write a
// file near a node, stream ranged reads, and stat sizes. It is the
// subset of *FileSystem a remote worker process reaches over RPC
// (rpc.RemoteStore), so the same map/reduce task code runs unchanged
// in-process and out-of-process.
type Store interface {
	// Create stores a complete file, placing the first replica on
	// localNode when it is alive (HDFS write-locality).
	Create(path string, data []byte, localNode string) error
	// ReadRange returns length bytes starting at offset, in a slice
	// the caller owns: the store keeps no reference to it and never
	// writes it again, so the engine hands map input out as views of it.
	ReadRange(path string, offset, length int64) ([]byte, error)
	// Size returns the file's length in bytes.
	Size(path string) (int64, error)
}

var _ Store = (*FileSystem)(nil)

// Rename moves a file to a new path — a pure metadata operation, the
// chunks stay where they are. It fails if the source is missing or the
// destination already exists. The engine commits a remote task's
// attempt-unique temp output into its final part-file name with it.
func (fs *FileSystem) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[oldPath]
	if !ok {
		return fmt.Errorf("dfs: rename %s: no such file", oldPath)
	}
	if _, exists := fs.files[newPath]; exists {
		return fmt.Errorf("dfs: rename to %s: already exists", newPath)
	}
	delete(fs.files, oldPath)
	fs.files[newPath] = meta
	return nil
}
