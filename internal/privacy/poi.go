// Package privacy implements the inference-attack and sanitization
// side of GEPETO around the clustering substrate: extraction and
// semantic labeling of points of interest (the attack the paper's
// clustering algorithms primarily serve, §VIII), Mobility Markov Chain
// models with prediction and de-anonymization attacks (the paper's
// announced MMC extension), geo-sanitization mechanisms (Gaussian
// masking, spatial cloaking, aggregation and mix zones), and
// privacy/utility metrics to evaluate the trade-off between the two —
// GEPETO's stated purpose.
package privacy

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/geolife"
	"repro/internal/gepeto"
)

// POILabel is the semantic category inferred for a POI.
type POILabel string

// Labels assigned by the POI attack. Revealing them "is likely to
// cause a privacy breach" (§II): home and work locations are the
// canonical quasi-identifier pair.
const (
	LabelHome    POILabel = "home"
	LabelWork    POILabel = "work"
	LabelLeisure POILabel = "leisure"
)

// POI is a point of interest extracted from a user's mobility traces.
type POI struct {
	// User is the individual the POI characterises.
	User string
	// Center is the POI's location (cluster centroid).
	Center geo.Point
	// Visits is the number of traces supporting the POI.
	Visits int
	// NightVisits (18:00-06:00) and WorkHourVisits (weekday
	// 09:00-17:00) split Visits by time of day, the evidence behind
	// the label.
	NightVisits, WorkHourVisits int
	// Label is the inferred semantic category.
	Label POILabel
}

// ExtractPOIs turns a DJ-Cluster result into labeled POIs per user —
// the inference attack the paper's clustering algorithms serve
// ("the clustering algorithms that we have implemented can be used
// primarily to extract the POIs of an individual", §VIII). Cluster
// visit times drive the labeling: the cluster with the largest share
// of night-time traces becomes home, the one with the largest share of
// weekday working-hour traces becomes work, the rest are leisure.
// Each member's time is read from its TraceID, so the clustering's
// output is all the attack needs.
func ExtractPOIs(res *gepeto.DJClusterResult) ([]POI, error) {
	byUser := make(map[string][]POI)
	for _, c := range res.Clusters {
		if len(c.Members) == 0 {
			continue
		}
		p := POI{User: c.User, Center: c.Centroid, Visits: len(c.Members), Label: LabelLeisure}
		for _, m := range c.Members {
			ts, err := gepeto.TimeOfTraceID(m)
			if err != nil {
				return nil, fmt.Errorf("privacy: cluster %s: %v", c.ID, err)
			}
			h := ts.Hour()
			if h >= 18 || h < 6 {
				p.NightVisits++
			}
			wd := ts.Weekday()
			if h >= 9 && h < 17 && wd != time.Saturday && wd != time.Sunday {
				p.WorkHourVisits++
			}
		}
		byUser[p.User] = append(byUser[p.User], p)
	}

	var out []POI
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		pois := byUser[u]
		// Home: most night visits; Work: most working-hour visits
		// among the rest.
		sort.SliceStable(pois, func(i, j int) bool { return pois[i].NightVisits > pois[j].NightVisits })
		if len(pois) > 0 && pois[0].NightVisits > 0 {
			pois[0].Label = LabelHome
		}
		bestWork, bestScore := -1, 0
		for i := range pois {
			if pois[i].Label == LabelHome {
				continue
			}
			if pois[i].WorkHourVisits > bestScore {
				bestWork, bestScore = i, pois[i].WorkHourVisits
			}
		}
		if bestWork >= 0 {
			pois[bestWork].Label = LabelWork
		}
		out = append(out, pois...)
	}
	return out, nil
}

// POIAttackReport scores an extracted-POI set against ground truth.
type POIAttackReport struct {
	// Users is the number of users attacked.
	Users int
	// HomeRecovered and WorkRecovered count users whose true home /
	// work was identified (a labeled POI within MatchRadius of it).
	HomeRecovered, WorkRecovered int
	// POIPrecision is the fraction of extracted POIs lying within
	// MatchRadius of some true POI.
	POIPrecision float64
	// POIRecall is the fraction of true POIs discovered (any label).
	POIRecall float64
	// MeanHomeErrorMeters is the mean distance from each recovered
	// home POI to the true home.
	MeanHomeErrorMeters float64
	// MatchRadius is the distance threshold used (meters).
	MatchRadius float64
}

// EvaluatePOIAttack compares extracted POIs with the generator's
// ground truth — the privacy measurement GEPETO exists to make.
func EvaluatePOIAttack(pois []POI, truth *geolife.GroundTruth, matchRadius float64) POIAttackReport {
	rep := POIAttackReport{MatchRadius: matchRadius}
	byUser := make(map[string][]POI)
	for _, p := range pois {
		byUser[p.User] = append(byUser[p.User], p)
	}
	var homeErrSum float64
	truePOIs, foundPOIs := 0, 0
	goodPOIs, totalPOIs := 0, 0
	for user, ups := range byUser {
		rep.Users++
		trueHome, okH := truth.Homes[user]
		trueWork, okW := truth.Works[user]
		if !okH || !okW {
			continue
		}
		for _, p := range ups {
			totalPOIs++
			near := false
			for _, tp := range truth.POIs(user) {
				if geo.Haversine(p.Center, tp) <= matchRadius {
					near = true
					break
				}
			}
			if near {
				goodPOIs++
			}
			if p.Label == LabelHome && geo.Haversine(p.Center, trueHome) <= matchRadius {
				rep.HomeRecovered++
				homeErrSum += geo.Haversine(p.Center, trueHome)
			}
			if p.Label == LabelWork && geo.Haversine(p.Center, trueWork) <= matchRadius {
				rep.WorkRecovered++
			}
		}
		for _, tp := range truth.POIs(user) {
			truePOIs++
			for _, p := range ups {
				if geo.Haversine(p.Center, tp) <= matchRadius {
					foundPOIs++
					break
				}
			}
		}
	}
	if totalPOIs > 0 {
		rep.POIPrecision = float64(goodPOIs) / float64(totalPOIs)
	}
	if truePOIs > 0 {
		rep.POIRecall = float64(foundPOIs) / float64(truePOIs)
	}
	if rep.HomeRecovered > 0 {
		rep.MeanHomeErrorMeters = homeErrSum / float64(rep.HomeRecovered)
	}
	return rep
}
