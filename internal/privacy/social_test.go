package privacy

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/mapreduce"
	"repro/internal/trace"
)

// friendsDataset builds three users: "a" and "b" meet repeatedly at a
// café (co-located dwells), "c" never meets anyone.
func friendsDataset() *trace.Dataset {
	cafe := geo.Point{Lat: 39.91, Lon: 116.41}
	far := geo.Point{Lat: 40.05, Lon: 116.20}
	var traces []trace.Trace
	base := time.Date(2008, 4, 7, 18, 0, 0, 0, time.UTC)
	// 5 evenings of a 20-minute café meeting, samples every minute.
	for day := 0; day < 5; day++ {
		start := base.AddDate(0, 0, day)
		for m := 0; m < 20; m++ {
			ts := start.Add(time.Duration(m) * time.Minute)
			traces = append(traces,
				trace.Trace{User: "a", Point: geo.Destination(cafe, float64(m*37), 4), Time: ts},
				trace.Trace{User: "b", Point: geo.Destination(cafe, float64(m*53), 4), Time: ts.Add(10 * time.Second)},
				trace.Trace{User: "c", Point: geo.Destination(far, float64(m*29), 4), Time: ts},
			)
		}
	}
	return trace.FromTraces(traces)
}

func TestSocialLinksSequential(t *testing.T) {
	ds := friendsDataset()
	links := DiscoverSocialLinksSequential(ds, SocialOptions{})
	if len(links) != 1 {
		t.Fatalf("links = %+v, want exactly a-b", links)
	}
	l := links[0]
	if l.UserA != "a" || l.UserB != "b" {
		t.Fatalf("wrong pair: %+v", l)
	}
	// 5 meetings x 20 min spanning 10-min windows -> at least 10
	// shared buckets.
	if l.SharedWindows < 10 {
		t.Fatalf("shared windows = %d, want >= 10", l.SharedWindows)
	}
}

func TestSocialLinksThreshold(t *testing.T) {
	ds := friendsDataset()
	// An absurd threshold suppresses everything.
	links := DiscoverSocialLinksSequential(ds, SocialOptions{MinSharedWindows: 10_000})
	if len(links) != 0 {
		t.Fatalf("links = %+v, want none", links)
	}
}

func TestSocialLinksMRMatchesSequential(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 8 << 10, Seed: 1})
	e := mapreduce.NewEngine(c, fs, mapreduce.Options{})
	ds := friendsDataset()
	if err := geolife.WriteRecords(fs, "in", ds); err != nil {
		t.Fatal(err)
	}
	// Re-read so coordinates match record precision for both paths.
	ds, err := geolife.ReadRecords(fs, "in")
	if err != nil {
		t.Fatal(err)
	}
	opts := SocialOptions{}
	mr, results, err := DiscoverSocialLinksMR(e, []string{"in"}, "social-work", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("expected 2 chained jobs, got %d", len(results))
	}
	seq := DiscoverSocialLinksSequential(ds, opts)
	if len(mr) != len(seq) {
		t.Fatalf("MR %d links vs sequential %d", len(mr), len(seq))
	}
	for i := range mr {
		if mr[i] != seq[i] {
			t.Fatalf("link %d: MR %+v vs seq %+v", i, mr[i], seq[i])
		}
	}
}

func TestSocialLinksNoFalsePositivesOnIndependentUsers(t *testing.T) {
	// Independently generated users practically never co-locate.
	ds := geolife.Generate(geolife.Config{Users: 5, TotalTraces: 25_000, Seed: 71})
	links := DiscoverSocialLinksSequential(ds, SocialOptions{})
	if len(links) != 0 {
		t.Fatalf("unexpected links between independent users: %+v", links)
	}
}

func TestSortLinksOrdering(t *testing.T) {
	links := []SocialLink{
		{UserA: "b", UserB: "c", SharedWindows: 2},
		{UserA: "a", UserB: "c", SharedWindows: 5},
		{UserA: "a", UserB: "b", SharedWindows: 2},
	}
	sortLinks(links)
	if links[0].SharedWindows != 5 {
		t.Fatal("links not sorted by count desc")
	}
	if links[1].UserA != "a" || links[2].UserA != "b" {
		t.Fatalf("tie-break by user failed: %+v", links)
	}
}
