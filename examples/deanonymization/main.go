// De-anonymization: the paper's §VIII extension — Mobility Markov
// Chains "can be used to predict future locations or even to perform
// de-anonymization attacks". A released dataset is pseudonymised (the
// usual "first protection mechanism" of §II); the adversary, holding
// an older identified dataset, builds MMC models on both sides and
// links pseudonyms back to identities, showing why pseudonymization
// alone "is clearly not a sufficient form of privacy protection".
//
//	go run ./examples/deanonymization
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
	"repro/internal/privacy"
	"repro/internal/trace"
)

func main() {
	// 8 users, ~3 weeks of traces each.
	ds, _ := geolife.GenerateWithTruth(geolife.Config{Users: 8, TotalTraces: 96_000, Seed: 77})

	// Split chronologically: the adversary's identified history vs the
	// "anonymized" release covering a later period.
	history := &trace.Dataset{}
	release := &trace.Dataset{}
	for _, tr := range ds.Trails {
		half := len(tr.Traces) / 2
		history.Trails = append(history.Trails, trace.Trail{User: tr.User, Traces: tr.Traces[:half]})
		release.Trails = append(release.Trails, trace.Trail{User: tr.User, Traces: tr.Traces[half:]})
	}
	anonRelease, mapping := privacy.Pseudonymize(release, 13)
	fmt.Printf("adversary holds %d identified traces; release has %d traces under pseudonyms\n\n",
		history.NumTraces(), anonRelease.NumTraces())

	// The adversary does not get ground-truth POIs: it extracts them
	// itself with the clustering attack, on both datasets.
	knownPOIs := extractPOIs(history)
	anonPOIs := extractPOIs(anonRelease)

	var known, anon []*privacy.MMC
	for i := range history.Trails {
		tr := &history.Trails[i]
		m, err := privacy.BuildMMC(tr, knownPOIs[tr.User], 50)
		if err != nil {
			log.Fatal(err)
		}
		known = append(known, m)
	}
	for i := range anonRelease.Trails {
		tr := &anonRelease.Trails[i]
		m, err := privacy.BuildMMC(tr, anonPOIs[tr.User], 50)
		if err != nil {
			log.Fatal(err)
		}
		anon = append(anon, m)
	}

	res := privacy.LinkByMMC(known, anon, mapping)
	pseudos := make([]string, 0, len(res.Matches))
	for p := range res.Matches {
		pseudos = append(pseudos, p)
	}
	sort.Strings(pseudos)
	fmt.Println("linking attack results:")
	for _, p := range pseudos {
		verdict := "WRONG"
		if mapping[p] == res.Matches[p] {
			verdict = "correct"
		}
		fmt.Printf("  %s -> linked to %q (truth: %q) %s\n", p, res.Matches[p], mapping[p], verdict)
	}
	fmt.Printf("\nde-anonymization accuracy: %d/%d (%.0f%%)\n", res.Correct, res.Total, res.Accuracy()*100)
	fmt.Printf("mean anonymity-set size: %.2f (1.0 = the attack is always certain)\n",
		privacy.AnonymitySetSize(known, anon, 1.05))
}

// extractPOIs runs the clustering attack per dataset and returns each
// user's POI centers.
func extractPOIs(ds *trace.Dataset) map[string][]geo.Point {
	sampled := gepeto.SampleSequential(ds, time.Minute, gepeto.SampleUpperLimit)
	_, pre := gepeto.PreprocessSequential(sampled, 2.0, 1.0)
	clusters := gepeto.DJClusterSequential(pre, gepeto.DefaultDJClusterOptions())
	pois, err := privacy.ExtractPOIs(clusters)
	if err != nil {
		log.Fatal(err)
	}
	out := map[string][]geo.Point{}
	for _, p := range pois {
		out[p.User] = append(out[p.User], p.Center)
	}
	return out
}
