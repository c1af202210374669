package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// rootSummary is one entry of the /trace/ listing.
type rootSummary struct {
	Seq         int      `json:"seq,omitempty"`
	Root        string   `json:"root"`
	Kind        string   `json:"kind"`
	Status      string   `json:"status"`
	StartUnixMs int64    `json:"start_unix_ms"`
	WallUs      int64    `json:"wall_us"`
	Jobs        []string `json:"jobs,omitempty"`
}

// TraceHandler serves the collector's trees under prefix (e.g.
// "/trace/"): the span tree of a running or finished root as JSON by
// default, or Chrome trace_event JSON with ?format=chrome — ready to
// load into Perfetto or chrome://tracing. The bare prefix lists the
// recently finished roots and then the live ones.
func TraceHandler(prefix string, c *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, prefix)
		if key == "" {
			list := []rootSummary{}
			for _, t := range append(c.Finished(), c.Live()...) {
				s := rootSummary{Seq: t.Seq, Root: t.Root.Name, Kind: t.Root.Kind, Status: t.Root.Status,
					StartUnixMs: t.StartUnixMs, WallUs: t.WallUs()}
				for _, j := range t.Root.Jobs() {
					s.Jobs = append(s.Jobs, j.Name)
				}
				list = append(list, s)
			}
			writeJSON(w, map[string]any{"traces": list})
			return
		}
		t, ok := c.Find(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			data, err := EncodeChrome(t)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(data)
			return
		}
		writeJSON(w, t)
	})
}

// AnalyzeHandler serves the bottleneck analysis of the collector's
// trees under prefix (e.g. "/analyze/"): JSON by default, the ASCII
// report with ?format=text. ?slow= and ?skew= override the straggler
// and skew factors.
func AnalyzeHandler(prefix string, c *Collector, opts Options) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, prefix)
		if key == "" {
			http.Error(w, "usage: "+prefix+"<jobID|pipeline|seq>[?format=text&slow=1.5&skew=2]", http.StatusBadRequest)
			return
		}
		t, ok := c.Find(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		o := opts
		if f, err := strconv.ParseFloat(r.URL.Query().Get("slow"), 64); err == nil {
			o.StragglerFactor = f
		}
		if f, err := strconv.ParseFloat(r.URL.Query().Get("skew"), 64); err == nil {
			o.SkewFactor = f
		}
		a := AnalyzeTree(t, o)
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteReport(w, t, a)
			return
		}
		writeJSON(w, a)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
