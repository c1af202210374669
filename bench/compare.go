package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs:
// the bound by which each end-to-end metric may get worse.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// compareMain prints, per workload and end-to-end metric, both values,
// how much worse b is than a as a share of a, and the bound from
// BENCHMARK.json; it returns 1 when a difference exceeds its bound or
// b failed more often than a.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json   (run from the repository root, beside BENCHMARK.json)")
		return 2
	}
	var bf benchmarkFile
	var a, b document
	for path, v := range map[string]any{"BENCHMARK.json": &bf, args[0]: &a, args[1]: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	exceeded := compareDocuments(os.Stdout, bf, a, b)
	if exceeded > 0 {
		fmt.Printf("%d difference(s) exceed their bound\n", exceeded)
		return 1
	}
	return 0
}

func compareDocuments(out *os.File, bf benchmarkFile, a, b document) (exceeded int) {
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tworse by\tbound\t\t\n")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t-\tabsent\t-\t-\tEXCEEDED\t\n", wa.Name)
			exceeded++
			continue
		}
		for _, m := range bf.EndToEnd {
			va, oka := wa.EndToEnd[m.Name]
			vb, okb := wb.EndToEnd[m.Name]
			if !oka || !okb {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\tEXCEEDED (not measured)\t\n", wa.Name, m.Name, 100*m.Bound)
				exceeded++
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\t\n", wa.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
		// failed_share may not rise at all.
		fa, fb := wa.EndToEnd["failed_share"].Value, wb.EndToEnd["failed_share"].Value
		verdict := "ok"
		if fb > fa {
			verdict = "EXCEEDED"
			exceeded++
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.3g\t%.3g\t\tany\t%s\t\n", wa.Name, fa, fb, verdict)
	}
	tw.Flush()
	return exceeded
}
