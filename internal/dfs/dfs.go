// Package dfs implements an in-process distributed file system
// modelled on HDFS as described in §III of the paper: files are
// partitioned into fixed-size chunks stored on datanodes, a namenode
// keeps the file metadata and chunk locations, and chunks are
// replicated (3 replicas by default) with the rack-aware policy — the
// first copy is written locally, the second on a datanode in the same
// rack as the first, and the third is shipped to a datanode in a
// different rack chosen at random.
//
// The chunk size is configurable; the paper's experiments use 64 MB and
// 32 MB and show it is "a crucial parameter having a big influence on
// the computational time" because it determines the number of map
// tasks.
package dfs

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// DefaultChunkSize is the standard Hadoop chunk size of 64 MB.
const DefaultChunkSize = 64 << 20

// DefaultReplication is HDFS's default of 3 replicas per chunk.
const DefaultReplication = 3

// Config parameterises the file system.
type Config struct {
	// ChunkSize is the chunk ("block") size in bytes. The paper
	// evaluates 32 MB and 64 MB. Defaults to DefaultChunkSize.
	ChunkSize int64
	// Replication is the number of replicas per chunk. Defaults to
	// DefaultReplication, capped at the number of alive nodes.
	Replication int
	// Seed drives the random replica placement, making layouts
	// reproducible.
	Seed int64
}

// ChunkInfo describes one chunk of a file as reported by the namenode
// to clients (and to the MapReduce jobtracker for locality scheduling).
type ChunkInfo struct {
	// Path is the file this chunk belongs to.
	Path string
	// Index is the chunk's position within the file (0-based).
	Index int
	// Offset is the byte offset of the chunk within the file.
	Offset int64
	// Length is the chunk's length in bytes (the final chunk may be
	// short).
	Length int64
	// Hosts are the datanodes holding replicas, primary first.
	Hosts []string
}

type chunkMeta struct {
	id       string
	index    int
	offset   int64
	length   int64
	checksum uint32 // CRC32 of the chunk contents, like HDFS block checksums
	replicas []string
}

type fileMeta struct {
	size   int64
	chunks []*chunkMeta
}

type datanode struct {
	blocks map[string][]byte
}

// FileSystem is the in-process DFS. All methods are safe for
// concurrent use. The namenode role (metadata, placement,
// re-replication) and datanode role (block storage) are both played by
// this object, with the cluster supplying topology and liveness.
type FileSystem struct {
	mu      sync.RWMutex
	cfg     Config
	cluster *cluster.Cluster
	files   map[string]*fileMeta
	nodes   map[string]*datanode
	rng     *rand.Rand

	// Cumulative I/O counters (atomic: bumped under read locks too).
	ioBytesRead    atomic.Int64
	ioBytesWritten atomic.Int64
	ioChunksRead   atomic.Int64
}

// IOStatsSnapshot is a point-in-time view of cumulative DFS I/O.
// Callers diff two snapshots to attribute I/O to an interval (the
// MapReduce engine does this per job; with concurrent jobs on one file
// system the attribution is shared, as with any global counter).
type IOStatsSnapshot struct {
	// BytesRead counts logical chunk bytes served to readers.
	BytesRead int64
	// BytesWritten counts logical file bytes accepted by Create
	// (excluding replication copies).
	BytesWritten int64
	// ChunksRead counts chunk reads served.
	ChunksRead int64
}

// IOStats returns the cumulative I/O counters.
func (fs *FileSystem) IOStats() IOStatsSnapshot {
	return IOStatsSnapshot{
		BytesRead:    fs.ioBytesRead.Load(),
		BytesWritten: fs.ioBytesWritten.Load(),
		ChunksRead:   fs.ioChunksRead.Load(),
	}
}

// New creates a file system over the cluster's alive nodes.
func New(c *cluster.Cluster, cfg Config) (*FileSystem, error) {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	alive := c.Alive()
	if len(alive) == 0 {
		return nil, fmt.Errorf("dfs: cluster has no alive nodes")
	}
	fs := &FileSystem{
		cfg:     cfg,
		cluster: c,
		files:   make(map[string]*fileMeta),
		nodes:   make(map[string]*datanode),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, n := range c.Nodes() {
		fs.nodes[n.ID] = &datanode{blocks: make(map[string][]byte)}
	}
	return fs, nil
}

// ChunkSize returns the configured chunk size in bytes.
func (fs *FileSystem) ChunkSize() int64 { return fs.cfg.ChunkSize }

// Create writes a new file, splitting it into chunks and placing
// replicas rack-aware. localNode is the identity of the writing client
// ("" for an off-cluster client, in which case the primary replica
// node is chosen at random, as HDFS does). It fails if the path
// already exists.
func (fs *FileSystem) Create(path string, data []byte, localNode string) error {
	if path == "" || strings.HasSuffix(path, "/") {
		return fmt.Errorf("dfs: invalid file path %q", path)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return fmt.Errorf("dfs: %s already exists", path)
	}
	meta := &fileMeta{size: int64(len(data))}
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0); off += fs.cfg.ChunkSize {
		end := off + fs.cfg.ChunkSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		cm := &chunkMeta{
			id:       fmt.Sprintf("%s#%d", path, len(meta.chunks)),
			index:    len(meta.chunks),
			offset:   off,
			length:   end - off,
			checksum: crc32.ChecksumIEEE(data[off:end]),
		}
		replicas, err := fs.placeReplicas(localNode)
		if err != nil {
			return fmt.Errorf("dfs: placing %s: %v", cm.id, err)
		}
		cm.replicas = replicas
		block := append([]byte(nil), data[off:end]...)
		for _, nodeID := range replicas {
			fs.nodes[nodeID].blocks[cm.id] = block
		}
		meta.chunks = append(meta.chunks, cm)
		if len(data) == 0 {
			break
		}
	}
	fs.files[path] = meta
	fs.ioBytesWritten.Add(int64(len(data)))
	return nil
}

// placeReplicas implements the rack-aware policy from §III. The caller
// must hold fs.mu.
func (fs *FileSystem) placeReplicas(localNode string) ([]string, error) {
	alive := fs.cluster.Alive()
	if len(alive) == 0 {
		return nil, fmt.Errorf("no alive datanodes")
	}
	want := fs.cfg.Replication
	if want > len(alive) {
		want = len(alive)
	}
	chosen := make([]string, 0, want)
	used := make(map[string]bool)
	pick := func(pred func(cluster.Node) bool) bool {
		cands := make([]cluster.Node, 0, len(alive))
		for _, n := range alive {
			if !used[n.ID] && (pred == nil || pred(n)) {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			return false
		}
		n := cands[fs.rng.Intn(len(cands))]
		chosen = append(chosen, n.ID)
		used[n.ID] = true
		return true
	}

	// First copy: written locally if the writer is a datanode.
	if localNode != "" && fs.cluster.IsAlive(localNode) {
		chosen = append(chosen, localNode)
		used[localNode] = true
	} else {
		pick(nil)
	}
	firstRack := fs.cluster.RackOf(chosen[0])

	// Second copy: a datanode in the same rack as the first replica.
	if len(chosen) < want {
		if !pick(func(n cluster.Node) bool { return n.Rack == firstRack }) {
			pick(nil) // degrade: no same-rack node available
		}
	}
	// Third copy: a datanode in a different rack, chosen at random.
	if len(chosen) < want {
		if !pick(func(n cluster.Node) bool { return n.Rack != firstRack }) {
			pick(nil) // degrade: single-rack cluster
		}
	}
	// Any further replicas: random remaining nodes.
	for len(chosen) < want {
		if !pick(nil) {
			break
		}
	}
	return chosen, nil
}

// Exists reports whether path names an existing file.
func (fs *FileSystem) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns the file's length in bytes.
func (fs *FileSystem) Size(path string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	meta, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("dfs: %s: no such file", path)
	}
	return meta.size, nil
}

// ReadAll returns the full contents of a file, reassembled from the
// first alive replica of each chunk.
func (fs *FileSystem) ReadAll(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	meta, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: %s: no such file", path)
	}
	out := make([]byte, 0, meta.size)
	for _, cm := range meta.chunks {
		block, err := fs.readChunkLocked(cm)
		if err != nil {
			return nil, err
		}
		out = append(out, block...)
	}
	return out, nil
}

// ReadRange reads length bytes starting at offset. Reads shorter than
// length at end-of-file are returned without error (like io.ReaderAt
// semantics but truncating instead of erroring).
func (fs *FileSystem) ReadRange(path string, offset, length int64) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	meta, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: %s: no such file", path)
	}
	if offset < 0 || length < 0 {
		return nil, fmt.Errorf("dfs: negative offset/length")
	}
	if offset >= meta.size {
		return nil, nil
	}
	end := offset + length
	if end > meta.size {
		end = meta.size
	}
	out := make([]byte, 0, end-offset)
	for _, cm := range meta.chunks {
		cEnd := cm.offset + cm.length
		if cEnd <= offset || cm.offset >= end {
			continue
		}
		block, err := fs.readChunkLocked(cm)
		if err != nil {
			return nil, err
		}
		lo := int64(0)
		if offset > cm.offset {
			lo = offset - cm.offset
		}
		hi := cm.length
		if end < cEnd {
			hi = end - cm.offset
		}
		out = append(out, block[lo:hi]...)
	}
	return out, nil
}

// readChunkLocked returns the block bytes from the first alive replica
// whose checksum verifies, skipping corrupt copies the way an HDFS
// client falls over to the next replica.
func (fs *FileSystem) readChunkLocked(cm *chunkMeta) ([]byte, error) {
	corrupt := 0
	for _, nodeID := range cm.replicas {
		if !fs.cluster.IsAlive(nodeID) {
			continue
		}
		block, ok := fs.nodes[nodeID].blocks[cm.id]
		if !ok {
			continue
		}
		if crc32.ChecksumIEEE(block) != cm.checksum {
			corrupt++
			continue
		}
		fs.ioChunksRead.Add(1)
		fs.ioBytesRead.Add(int64(len(block)))
		return block, nil
	}
	if corrupt > 0 {
		return nil, fmt.Errorf("dfs: chunk %s: %d corrupt replica(s), none valid", cm.id, corrupt)
	}
	return nil, fmt.Errorf("dfs: chunk %s: all replicas unavailable", cm.id)
}

// CorruptReplica flips a byte in one replica of the chunk holding the
// given file offset — a fault-injection hook for testing checksum
// fallback. It returns the node whose copy was damaged.
func (fs *FileSystem) CorruptReplica(path string, offset int64) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[path]
	if !ok {
		return "", fmt.Errorf("dfs: %s: no such file", path)
	}
	for _, cm := range meta.chunks {
		if offset < cm.offset || offset >= cm.offset+cm.length {
			continue
		}
		for _, nodeID := range cm.replicas {
			dn := fs.nodes[nodeID]
			block, ok := dn.blocks[cm.id]
			if !ok || len(block) == 0 {
				continue
			}
			if crc32.ChecksumIEEE(block) != cm.checksum {
				continue // already corrupt; damage a fresh copy
			}
			// Copy-on-corrupt: replicas share the backing array.
			damaged := append([]byte(nil), block...)
			damaged[0] ^= 0xFF
			dn.blocks[cm.id] = damaged
			return nodeID, nil
		}
		return "", fmt.Errorf("dfs: chunk %s has no intact replica left", cm.id)
	}
	return "", fmt.Errorf("dfs: offset %d beyond %s", offset, path)
}

// ScrubChecksums verifies every stored replica against its chunk
// checksum, deletes corrupt copies, and re-replicates (the HDFS block
// scanner). It returns the number of corrupt replicas removed.
func (fs *FileSystem) ScrubChecksums() (removed int, err error) {
	fs.mu.Lock()
	for _, meta := range fs.files {
		for _, cm := range meta.chunks {
			for _, nodeID := range cm.replicas {
				dn := fs.nodes[nodeID]
				if block, ok := dn.blocks[cm.id]; ok && crc32.ChecksumIEEE(block) != cm.checksum {
					delete(dn.blocks, cm.id)
					removed++
				}
			}
		}
	}
	fs.mu.Unlock()
	if removed > 0 {
		if _, rerr := fs.ReReplicate(); rerr != nil {
			return removed, rerr
		}
	}
	return removed, nil
}

// Chunks reports the chunk layout of a file, with only alive hosts
// listed (what the namenode would tell the jobtracker).
func (fs *FileSystem) Chunks(path string) ([]ChunkInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	meta, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: %s: no such file", path)
	}
	out := make([]ChunkInfo, 0, len(meta.chunks))
	for _, cm := range meta.chunks {
		hosts := make([]string, 0, len(cm.replicas))
		for _, h := range cm.replicas {
			if fs.cluster.IsAlive(h) {
				hosts = append(hosts, h)
			}
		}
		out = append(out, ChunkInfo{
			Path:   path,
			Index:  cm.index,
			Offset: cm.offset,
			Length: cm.length,
			Hosts:  hosts,
		})
	}
	return out, nil
}

// Expand resolves input paths to files, as a job's input paths
// resolve: a path that is a file names itself, any other the files
// under it (see List), and a path that names no file is an error.
func (fs *FileSystem) Expand(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		if fs.Exists(p) {
			files = append(files, p)
			continue
		}
		listed := fs.List(p)
		if len(listed) == 0 {
			return nil, fmt.Errorf("dfs: input %q matches no files", p)
		}
		files = append(files, listed...)
	}
	return files, nil
}

// List returns the sorted paths of all files under the given directory
// prefix ("" lists everything). A trailing slash on dir is optional.
func (fs *FileSystem) List(dir string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	prefix := dir
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	var out []string
	for p := range fs.files {
		if prefix == "" || strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a file and its blocks from all datanodes.
func (fs *FileSystem) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("dfs: %s: no such file", path)
	}
	for _, cm := range meta.chunks {
		for _, nodeID := range cm.replicas {
			delete(fs.nodes[nodeID].blocks, cm.id)
		}
	}
	delete(fs.files, path)
	return nil
}

// DeleteDir removes every file under the directory prefix. It keeps
// going past individual failures and returns the first one.
func (fs *FileSystem) DeleteDir(dir string) error {
	var first error
	for _, p := range fs.List(dir) {
		if err := fs.Delete(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReReplicate restores the replication factor of chunks that lost
// replicas to dead nodes, copying from a surviving replica to new
// nodes (what the namenode does after datanode failure detection).
// It returns the number of new replicas created and an error if any
// chunk has lost all replicas.
func (fs *FileSystem) ReReplicate() (created int, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var lost []string
	for path, meta := range fs.files {
		for _, cm := range meta.chunks {
			aliveReps := cm.replicas[:0:0]
			for _, nodeID := range cm.replicas {
				if fs.cluster.IsAlive(nodeID) {
					aliveReps = append(aliveReps, nodeID)
				}
			}
			if len(aliveReps) == 0 {
				lost = append(lost, fmt.Sprintf("%s (of %s)", cm.id, path))
				continue
			}
			want := fs.cfg.Replication
			if alive := fs.cluster.Alive(); want > len(alive) {
				want = len(alive)
			}
			if len(aliveReps) >= want {
				cm.replicas = aliveReps
				continue
			}
			block, rerr := fs.readChunkLocked(cm)
			if rerr != nil {
				lost = append(lost, cm.id)
				continue
			}
			used := make(map[string]bool)
			for _, r := range aliveReps {
				used[r] = true
			}
			for _, n := range fs.cluster.Alive() {
				if len(aliveReps) >= want {
					break
				}
				if used[n.ID] {
					continue
				}
				fs.nodes[n.ID].blocks[cm.id] = block
				aliveReps = append(aliveReps, n.ID)
				used[n.ID] = true
				created++
			}
			cm.replicas = aliveReps
		}
	}
	if len(lost) > 0 {
		sort.Strings(lost)
		return created, fmt.Errorf("dfs: data loss: chunks with no surviving replica: %s", strings.Join(lost, ", "))
	}
	return created, nil
}

// Stats summarises the cluster-wide storage state.
type Stats struct {
	// Files is the number of files.
	Files int
	// Chunks is the total number of logical chunks.
	Chunks int
	// Blocks is the total number of stored replicas across datanodes.
	Blocks int
	// Bytes is the logical data size (excluding replication).
	Bytes int64
	// BlocksPerNode maps node ID to stored block count.
	BlocksPerNode map[string]int
}

// Stats returns current storage statistics.
func (fs *FileSystem) Stats() Stats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	s := Stats{BlocksPerNode: make(map[string]int)}
	for _, meta := range fs.files {
		s.Files++
		s.Chunks += len(meta.chunks)
		s.Bytes += meta.size
	}
	for nodeID, dn := range fs.nodes {
		s.Blocks += len(dn.blocks)
		if len(dn.blocks) > 0 {
			s.BlocksPerNode[nodeID] = len(dn.blocks)
		}
	}
	return s
}
