// Privacy/utility trade-off: GEPETO's stated purpose is to let a data
// curator "design, tune, experiment and evaluate various sanitization
// algorithms and inference attacks ... and evaluate the resulting
// trade-off between privacy and utility" (§I). This example sweeps
// several geo-sanitization mechanisms (§VIII), re-runs the POI attack
// on each sanitized dataset, and prints the trade-off table.
//
//	go run ./examples/privacy-tradeoff
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/privacy"
	"repro/internal/trace"
)

func main() {
	ds, truth := geolife.GenerateWithTruth(geolife.Config{Users: 4, TotalTraces: 40_000, Seed: 5})
	fmt.Printf("dataset: %d traces, %d users\n\n", ds.NumTraces(), len(ds.Trails))

	mechanisms := []privacy.Sanitizer{
		privacy.GaussianMask{SigmaMeters: 50, Seed: 1},
		privacy.GaussianMask{SigmaMeters: 100, Seed: 1},
		privacy.GaussianMask{SigmaMeters: 300, Seed: 1},
		privacy.SpatialCloaking{CellMeters: 200},
		privacy.SpatialCloaking{CellMeters: 500},
		privacy.TemporalAggregation{Window: 10 * time.Minute},
	}

	fmt.Printf("%-18s %12s %10s %8s %8s %8s\n",
		"mechanism", "distortion", "retention", "homes", "works", "recall")
	base := attack(ds, truth)
	fmt.Printf("%-18s %12s %9.0f%% %5d/%-2d %5d/%-2d %8.2f\n",
		"none", "0 m", 100.0, base.HomeRecovered, base.Users, base.WorkRecovered, base.Users, base.POIRecall)

	for _, s := range mechanisms {
		sanitized := s.Sanitize(ds)
		util := privacy.MeasureUtility(ds, sanitized)
		rep := attack(sanitized, truth)
		fmt.Printf("%-18s %10.0f m %9.0f%% %5d/%-2d %5d/%-2d %8.2f\n",
			s.Name(), util.MeanDistortionMeters, util.Retention*100,
			rep.HomeRecovered, base.Users, rep.WorkRecovered, base.Users, rep.POIRecall)
	}

	fmt.Println(`
reading the table:
  - "distortion" is utility loss (mean displacement of surviving traces);
  - "homes"/"works"/"recall" are privacy risk (what the attack still finds);
  - Gaussian noise reduces POI recall but home recovery resists it (the
    noise is zero-mean, so cluster centroids stay on the true POI);
  - cloaking defeats the attack outright at moderate distortion — the
    kind of conclusion GEPETO's attack-then-measure loop is built for.`)
}

// attack runs the sequential sample -> preprocess -> DJ-Cluster -> POI
// pipeline and scores it against ground truth.
func attack(ds *trace.Dataset, truth *geolife.GroundTruth) privacy.POIAttackReport {
	sampled := gepeto.SampleSequential(ds, time.Minute, gepeto.SampleUpperLimit)
	_, pre := gepeto.PreprocessSequential(sampled, 2.0, 1.0)
	res := gepeto.DJClusterSequential(pre, gepeto.DefaultDJClusterOptions())
	pois, err := privacy.ExtractPOIs(res)
	if err != nil {
		log.Fatal(err)
	}
	return privacy.EvaluatePOIAttack(pois, truth, 50)
}
