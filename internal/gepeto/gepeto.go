// Package gepeto implements the MapReduced GEPETO toolkit — the
// paper's primary contribution: down-sampling (§V), k-means clustering
// (§VI), DJ-Cluster (§VII) and MapReduce R-tree construction (§VII-C)
// over mobility-trace datasets stored in the DFS, executed by the
// mapreduce engine. Sequential baselines of every algorithm are
// provided for correctness cross-checks and speed-up benchmarks.
//
// Data layout: jobs are typed over trace records via internal/recordio
// codecs. Input codecs accept both text uploads ("user TAB
// lat,lon,alt,unix" lines, see internal/recordio.DecodeTraceValue) and
// the binary part files earlier jobs produce. Every trace-emitting job outputs binary recordio
// records with key = user and value = the encoded trace, so its part
// files are directly consumable as input records by the next job in a
// pipeline.
package gepeto

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
)

// TraceID is a compact unique identifier for a trace within a dataset:
// "user:unixSeconds". Per-user timestamps are unique in GeoLife-style
// trails (consecutive traces are at least a second apart), so the pair
// identifies a trace while remaining meaningful to inference code.
func TraceID(t trace.Trace) string {
	return t.User + ":" + strconv.FormatInt(t.Time.Unix(), 10)
}

// UserOfTraceID extracts the user part of a TraceID: everything
// before its last ':', which TraceID puts after the user (who may
// have ':' in the name).
func UserOfTraceID(id string) string {
	if i := strings.LastIndexByte(id, ':'); i >= 0 {
		return id[:i]
	}
	return id
}

// TimeOfTraceID extracts the timestamp of a TraceID: the whole Unix
// seconds after its last ':', in UTC.
func TimeOfTraceID(id string) (time.Time, error) {
	i := strings.LastIndexByte(id, ':')
	if i < 0 {
		return time.Time{}, fmt.Errorf("gepeto: trace ID %q has no time", id)
	}
	sec, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("gepeto: trace ID %q: %v", id, err)
	}
	return time.Unix(sec, 0).UTC(), nil
}
