package geolife

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/geo"
	"repro/internal/trace"
)

// WriteRecordsLocal writes a dataset as record files (one "<user>.rec"
// per user) into a local directory, creating it if needed. This is the
// on-disk interchange format of the gepeto CLI.
func WriteRecordsLocal(dir string, ds *trace.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range ds.Trails {
		tr := &ds.Trails[i]
		buf := make([]byte, 0, len(tr.Traces)*48)
		for _, t := range tr.Traces {
			buf = append(t.AppendRecord(buf), '\n')
		}
		path := filepath.Join(dir, sanitizeFilename(tr.User)+".rec")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ReadRecordsLocal reads every *.rec file in a local directory back
// into a dataset, each read as ForEachRecord reads a DFS file.
func ReadRecordsLocal(dir string) (*trace.Dataset, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".rec") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("geolife: no .rec files in %s", dir)
	}
	sort.Strings(names)
	var traces []trace.Trace
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		err = scanFile(data, decoding(func(t trace.Trace) error {
			traces = append(traces, t)
			return nil
		}))
		if err != nil {
			return nil, fmt.Errorf("geolife: %s: %v", name, err)
		}
	}
	return trace.FromTraces(traces), nil
}

// sanitizeFilename keeps pseudonyms like "a~1" file-safe.
func sanitizeFilename(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '~', r == '.':
			return r
		}
		return '_'
	}, s)
}

// truthJSON is the serialized form of GroundTruth.
type truthJSON struct {
	Homes   map[string][2]float64   `json:"homes"`
	Works   map[string][2]float64   `json:"works"`
	Leisure map[string][][2]float64 `json:"leisure"`
}

// SaveTruth writes ground truth as JSON (CLI interchange).
func SaveTruth(path string, truth *GroundTruth) error {
	t := truthJSON{
		Homes:   map[string][2]float64{},
		Works:   map[string][2]float64{},
		Leisure: map[string][][2]float64{},
	}
	for u, p := range truth.Homes {
		t.Homes[u] = [2]float64{p.Lat, p.Lon}
	}
	for u, p := range truth.Works {
		t.Works[u] = [2]float64{p.Lat, p.Lon}
	}
	for u, ps := range truth.Leisure {
		for _, p := range ps {
			t.Leisure[u] = append(t.Leisure[u], [2]float64{p.Lat, p.Lon})
		}
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadTruth reads ground truth saved by SaveTruth.
func LoadTruth(path string) (*GroundTruth, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t truthJSON
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("geolife: parsing %s: %v", path, err)
	}
	truth := &GroundTruth{
		Homes:   map[string]geo.Point{},
		Works:   map[string]geo.Point{},
		Leisure: map[string][]geo.Point{},
	}
	for u, p := range t.Homes {
		truth.Homes[u] = geo.Point{Lat: p[0], Lon: p[1]}
	}
	for u, p := range t.Works {
		truth.Works[u] = geo.Point{Lat: p[0], Lon: p[1]}
	}
	for u, ps := range t.Leisure {
		for _, p := range ps {
			truth.Leisure[u] = append(truth.Leisure[u], geo.Point{Lat: p[0], Lon: p[1]})
		}
	}
	return truth, nil
}
