package viz

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/trace"
)

func sampleTrail() *trace.Trail {
	tr := &trace.Trail{User: "u"}
	base := geo.Point{Lat: 39.9, Lon: 116.4}
	for i := 0; i < 10; i++ {
		tr.Traces = append(tr.Traces, trace.Trace{
			User:  "u",
			Point: geo.Destination(base, 45, float64(i)*100),
			Time:  time.Unix(int64(1_200_000_000+i*60), 0),
		})
	}
	return tr
}

func TestBoundsOf(t *testing.T) {
	tr := sampleTrail()
	ds := &trace.Dataset{Trails: []trace.Trail{*tr}}
	b := BoundsOf(ds)
	if !b.Contains(tr.Traces[0].Point) || !b.Contains(tr.Traces[9].Point) {
		t.Fatal("bounds must contain all points")
	}
	if b.Max.Lat <= b.Min.Lat || b.Max.Lon <= b.Min.Lon {
		t.Fatalf("degenerate bounds %+v for a moving trail", b)
	}
	if BoundsOf(&trace.Dataset{}) != (geo.Rect{}) {
		t.Fatal("empty dataset should have zero bounds")
	}
}

func TestCanvasProjection(t *testing.T) {
	b := geo.Rect{Min: geo.Point{Lat: 39, Lon: 116}, Max: geo.Point{Lat: 40, Lon: 117}}
	c := NewCanvas(b, 1000, 1000)
	// SW corner maps near bottom-left, NE near top-right.
	x1, y1 := c.xy(geo.Point{Lat: 39, Lon: 116})
	x2, y2 := c.xy(geo.Point{Lat: 40, Lon: 117})
	if !(x1 < x2 && y1 > y2) {
		t.Fatalf("projection inverted: (%v,%v) vs (%v,%v)", x1, y1, x2, y2)
	}
	// Points inside bounds stay inside the viewport.
	for _, p := range []geo.Point{{Lat: 39.5, Lon: 116.5}, {Lat: 39, Lon: 116}, {Lat: 40, Lon: 117}} {
		x, y := c.xy(p)
		if x < 0 || x > 1000 || y < 0 || y > 1000 {
			t.Fatalf("point %v projects outside viewport: (%v,%v)", p, x, y)
		}
	}
}

func TestRenderDatasetProducesValidSVG(t *testing.T) {
	ds := geolife.Generate(geolife.Config{Users: 3, TotalTraces: 3000, Seed: 1})
	c := RenderDataset(ds, 800, 600)
	c.AddTitle(`Dataset <3 "users" & trails`)
	svg := c.SVG()
	if !strings.HasPrefix(svg, `<svg xmlns="http://www.w3.org/2000/svg"`) {
		t.Fatal("missing SVG header")
	}
	if !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("missing SVG footer")
	}
	if strings.Count(svg, "<polyline") != 3 {
		t.Fatalf("expected 3 polylines, got %d", strings.Count(svg, "<polyline"))
	}
	// Title must be escaped.
	if strings.Contains(svg, `<3 "users"`) {
		t.Fatal("unescaped title")
	}
	if !strings.Contains(svg, "&lt;3 &quot;users&quot; &amp; trails") {
		t.Fatal("escaped title missing")
	}
}

func TestMarkersCirclesPoints(t *testing.T) {
	c := NewCanvas(geo.Rect{Min: geo.Point{Lat: 39, Lon: 116}, Max: geo.Point{Lat: 40, Lon: 117}}, 400, 400)
	center := geo.Point{Lat: 39.5, Lon: 116.5}
	c.AddMarker(center, "home", 0)
	c.AddCircle(center, 500, 1)
	c.AddPoints([]geo.Point{center, geo.Destination(center, 0, 100)}, 2, 2)
	svg := c.SVG()
	for _, want := range []string{"<circle", "home", "stroke-dasharray"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// Circle pixel radius must be sane: 500m on a ~111km/400px canvas
	// is ~1.8 px; just check it rendered with r > 0.
	if strings.Contains(svg, `r="0.0"`) {
		t.Fatal("zero-radius circle")
	}
}

func TestEmptyLayersSkipped(t *testing.T) {
	c := NewCanvas(geo.RectFromPoint(geo.Point{Lat: 39.9, Lon: 116.4}), 100, 100)
	c.AddTrail(&trace.Trail{}, 0)
	c.AddPoints(nil, 0, 1)
	svg := c.SVG()
	if strings.Contains(svg, "polyline") || strings.Count(svg, "circle") > 0 {
		t.Fatalf("empty layers should render nothing: %s", svg)
	}
}

func TestColorCycles(t *testing.T) {
	if color(0) == "" || color(10) != color(0) || color(-1) != color(9) {
		t.Fatalf("palette cycling broken: %s %s %s", color(0), color(10), color(-1))
	}
}

func TestDefaultCanvasSize(t *testing.T) {
	c := NewCanvas(geo.Rect{}, 0, 0)
	svg := c.SVG()
	if !strings.Contains(svg, `width="800" height="600"`) {
		t.Fatal("default size not applied")
	}
}

func TestHeatmapAccumulation(t *testing.T) {
	b := geo.Rect{Min: geo.Point{Lat: 39, Lon: 116}, Max: geo.Point{Lat: 40, Lon: 117}}
	h := NewHeatmap(b, 10, 10)
	center := geo.Point{Lat: 39.55, Lon: 116.55}
	for i := 0; i < 100; i++ {
		h.Add(center)
	}
	h.Add(geo.Point{Lat: 50, Lon: 50}) // outside: ignored
	if h.MaxCount() != 100 {
		t.Fatalf("MaxCount = %d, want 100", h.MaxCount())
	}
	if h.OccupiedCells() != 1 {
		t.Fatalf("OccupiedCells = %d, want 1", h.OccupiedCells())
	}
}

func TestHeatmapRenderSVG(t *testing.T) {
	ds := geolife.Generate(geolife.Config{Users: 2, TotalTraces: 4000, Seed: 2})
	h := NewHeatmap(BoundsOf(ds), 32, 24)
	h.AddDataset(ds)
	if h.OccupiedCells() == 0 {
		t.Fatal("no occupied cells")
	}
	svg := h.RenderSVG(640, 480).SVG()
	if !strings.Contains(svg, "<rect") || !strings.Contains(svg, "rgb(") {
		t.Fatal("heatmap cells missing from SVG")
	}
	// Dense cells (dwells) must render darker than sparse ones: at
	// least two distinct colors.
	if strings.Count(svg, "rgb(255,230,80)") == strings.Count(svg, "rgb(") {
		t.Fatal("heatmap is monochrome")
	}
}

func TestHeatmapEmpty(t *testing.T) {
	h := NewHeatmap(geo.Rect{Min: geo.Point{Lat: 0, Lon: 0}, Max: geo.Point{Lat: 1, Lon: 1}}, 0, 0)
	svg := h.RenderSVG(100, 100).SVG()
	if strings.Contains(svg, "<rect x=") && strings.Contains(svg, "rgb(") {
		t.Fatal("empty heatmap should render no cells")
	}
}

func TestHeatColorRamp(t *testing.T) {
	r0, g0, _ := heatColor(0)
	r1, g1, _ := heatColor(1)
	if r0 != 255 || r1 != 255 {
		t.Fatal("red channel should stay saturated")
	}
	if g1 >= g0 {
		t.Fatal("green must fall with intensity")
	}
	// Out-of-range inputs clamp.
	if ra, _, _ := heatColor(-5); ra != 255 {
		t.Fatal("clamp low")
	}
	if _, gb, _ := heatColor(5); gb != 0 {
		t.Fatal("clamp high")
	}
}

func TestRenderClusters(t *testing.T) {
	ds := geolife.Generate(geolife.Config{Users: 1, TotalTraces: 1000, Seed: 3})
	clusters := []ClusterView{
		{Centroid: ds.Trails[0].Traces[0].Point, Label: "home", Size: 40},
		{Centroid: ds.Trails[0].Traces[500].Point, Label: "work", Size: 9},
	}
	svg := RenderClusters(ds, clusters, 640, 480).SVG()
	for _, want := range []string{"home", "work", "polyline", "stroke-dasharray"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}
