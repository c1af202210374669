package core

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/privacy"
)

func newTestToolkit(t *testing.T) *Toolkit {
	t.Helper()
	tk, err := NewToolkit(ClusterConfig{
		Nodes: 4, Racks: 2, SlotsPerNode: 2, ChunkSize: 256 << 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestNewToolkitDefaults(t *testing.T) {
	tk, err := NewToolkit(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tk.Cluster().Nodes()); got != 7 {
		t.Fatalf("nodes = %d, want 7", got)
	}
	if tk.FS().ChunkSize() != 64<<20 {
		t.Fatalf("chunk size = %d", tk.FS().ChunkSize())
	}
	if tk.DeployTime <= 0 {
		t.Fatal("DeployTime not recorded")
	}
	if tk.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestNewToolkitInvalid(t *testing.T) {
	if _, err := NewToolkit(ClusterConfig{Nodes: -1, Racks: -1}); err == nil {
		t.Skip("defaults repair negative values; nothing to assert")
	}
}

func TestGenerateUploadDownloadRoundTrip(t *testing.T) {
	tk := newTestToolkit(t)
	ds, truth, uploadTime, err := tk.GenerateAndUpload(
		geolife.Config{Users: 2, TotalTraces: 4000, Seed: 3}, "data")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTraces() != 4000 {
		t.Fatalf("NumTraces = %d", ds.NumTraces())
	}
	if len(truth.Homes) != 2 {
		t.Fatalf("truth users = %d", len(truth.Homes))
	}
	if uploadTime <= 0 {
		t.Fatal("upload time not measured")
	}
	back, err := tk.Download("data")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTraces() != 4000 {
		t.Fatalf("Download = %d traces", back.NumTraces())
	}
	if mb := tk.DatasetSizeMB("data"); mb <= 0 {
		t.Fatalf("DatasetSizeMB = %v", mb)
	}
}

func TestToolkitSampleAndKMeans(t *testing.T) {
	tk := newTestToolkit(t)
	if _, _, _, err := tk.GenerateAndUpload(geolife.Config{Users: 2, TotalTraces: 8000, Seed: 5}, "data"); err != nil {
		t.Fatal(err)
	}
	res, err := tk.Sample("data", "sampled", time.Minute, gepeto.SampleUpperLimit)
	if err != nil {
		t.Fatal(err)
	}
	in := res.Counters.Value("task", "map_input_records")
	out := res.Counters.Value("task", "map_output_records")
	if in != 8000 || out >= in {
		t.Fatalf("sampling: %d -> %d", in, out)
	}
	km, err := tk.KMeans("sampled", gepeto.KMeansOptions{K: 3, MaxIter: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(km.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(km.Centroids))
	}
}

func TestToolkitEndToEndPOIAttack(t *testing.T) {
	tk := newTestToolkit(t)
	_, truth, _, err := tk.GenerateAndUpload(geolife.Config{Users: 2, TotalTraces: 20_000, Seed: 7}, "data")
	if err != nil {
		t.Fatal(err)
	}
	pois, res, err := tk.AttackPOI("data", time.Minute, gepeto.DefaultDJClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pois) == 0 || len(res.Clusters) == 0 {
		t.Fatal("attack found nothing")
	}
	rep := EvaluatePOIAttack(pois, truth, 50)
	if rep.HomeRecovered < 1 {
		t.Errorf("home recovered for %d/2 users", rep.HomeRecovered)
	}
	for _, p := range pois {
		if !p.Center.Valid() {
			t.Fatalf("invalid center %v", p.Center)
		}
	}
}

func TestToolkitSanitizers(t *testing.T) {
	tk := newTestToolkit(t)
	ds, _, _, err := tk.GenerateAndUpload(geolife.Config{Users: 1, TotalTraces: 3000, Seed: 9}, "data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.SanitizeGaussian("data", "masked", 100, 1); err != nil {
		t.Fatal(err)
	}
	masked, err := tk.Download("masked")
	if err != nil {
		t.Fatal(err)
	}
	if masked.NumTraces() != ds.NumTraces() {
		t.Fatalf("mask changed trace count: %d vs %d", masked.NumTraces(), ds.NumTraces())
	}
	rep := privacy.MeasureUtility(ds, masked)
	if rep.MeanDistortionMeters < 40 || rep.MeanDistortionMeters > 200 {
		t.Fatalf("distortion %.1f", rep.MeanDistortionMeters)
	}

	if _, err := tk.SanitizeCloaking("data", "cloaked", 300); err != nil {
		t.Fatal(err)
	}
	cloaked, err := tk.Download("cloaked")
	if err != nil {
		t.Fatal(err)
	}
	uniq := map[geo.Point]bool{}
	for _, tr := range cloaked.Trails {
		for _, tc := range tr.Traces {
			uniq[tc.Point] = true
		}
	}
	if len(uniq) > 100 {
		t.Fatalf("cloaking left %d unique positions", len(uniq))
	}
}

func TestToolkitBuildRTree(t *testing.T) {
	tk := newTestToolkit(t)
	ds, _, _, err := tk.GenerateAndUpload(geolife.Config{Users: 1, TotalTraces: 2000, Seed: 11}, "data")
	if err != nil {
		t.Fatal(err)
	}
	entries, height, results, err := tk.BuildRTree("data", gepeto.RTreeBuildOptions{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if entries != ds.NumTraces() {
		t.Fatalf("entries = %d, want %d", entries, ds.NumTraces())
	}
	if height < 2 {
		t.Fatalf("height = %d", height)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
}

func TestToolkitEngineAndUpload(t *testing.T) {
	tk := newTestToolkit(t)
	if tk.Engine() == nil {
		t.Fatal("Engine() returned nil")
	}
	ds := geolife.Generate(geolife.Config{Users: 1, TotalTraces: 500, Seed: 13})
	if err := tk.Upload(ds, "up"); err != nil {
		t.Fatal(err)
	}
	back, err := tk.Download("up")
	if err != nil || back.NumTraces() != 500 {
		t.Fatalf("Download after Upload: %v traces, err %v", back.NumTraces(), err)
	}
	// Upload to an occupied path fails cleanly.
	if err := tk.Upload(ds, "up"); err == nil {
		t.Fatal("double upload should error")
	}
}

func TestToolkitAttackPOIErrorPaths(t *testing.T) {
	tk := newTestToolkit(t)
	// Attack on a missing input directory must error, not panic.
	if _, _, err := tk.AttackPOI("nope", time.Minute, gepeto.DefaultDJClusterOptions()); err == nil {
		t.Fatal("want error for missing input")
	}
}
