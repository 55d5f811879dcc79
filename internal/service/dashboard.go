package service

import (
	"html/template"
	"net/http"
	"sort"

	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// dashboardTemplate renders the operator status page served at GET /.
// It deliberately avoids external assets so the daemon works air-gapped.
var dashboardTemplate = template.Must(template.New("dashboard").Funcs(template.FuncMap{
	"deref": func(f *float64) float64 {
		if f == nil {
			return 0
		}
		return *f
	},
}).Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>CrowdLearn assessment service</title>
<style>
 body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
 h1 { font-size: 1.4rem; }
 table { border-collapse: collapse; margin: 1rem 0; }
 th, td { border: 1px solid #ccc; padding: 0.3rem 0.7rem; text-align: left; }
 th { background: #f2f2f2; }
 .sev-severe { color: #b00020; font-weight: bold; }
 .sev-moderate { color: #a06000; }
 .sev-no-damage { color: #1a7a2a; }
 .muted { color: #777; font-size: 0.9rem; }
</style>
</head>
<body>
<h1>CrowdLearn assessment service</h1>
<table>
<tr><th>cycles run</th><td>{{.Stats.CyclesRun}}</td></tr>
<tr><th>images assessed</th><td>{{.Stats.ImagesAssessed}}</td></tr>
<tr><th>crowd queries</th><td>{{.Stats.CrowdQueries}}</td></tr>
<tr><th>total spend (USD)</th><td>{{printf "%.2f" .Stats.TotalSpent}}</td></tr>
<tr><th>mean crowd delay (s)</th><td>{{printf "%.1f" .Stats.MeanCrowdDelayS}}</td></tr>
{{if .Stats.BudgetRemaining}}<tr><th>budget remaining (USD)</th><td>{{printf "%.2f" (deref .Stats.BudgetRemaining)}}</td></tr>{{end}}
</table>
{{if .Weights}}
<h2>Expert weights</h2>
<table>
<tr><th>expert</th><th>weight</th></tr>
{{range .Weights}}
<tr><td>{{.Name}}</td><td>{{printf "%.3f" .Weight}}</td></tr>
{{end}}
</table>
{{end}}
<h2>Recent cycles</h2>
{{if .Recent}}
<table>
<tr><th>cycle</th><th>images</th><th>queried</th><th>spend (USD)</th><th>crowd delay (s)</th><th>labels</th></tr>
{{range .Recent}}
<tr>
 <td>{{.CycleIndex}}</td>
 <td>{{len .Assessments}}</td>
 <td>{{len .QueriedImageIDs}}</td>
 <td>{{printf "%.2f" .SpentDollars}}</td>
 <td>{{printf "%.1f" .CrowdDelaySeconds}}</td>
 <td>{{range .Assessments}}<span class="sev-{{.LabelName}}">{{.LabelName}}</span> {{end}}</td>
</tr>
{{end}}
</table>
{{else}}
<p class="muted">No cycles yet — POST /assess to begin.</p>
{{end}}
<p class="muted">API: POST /assess · GET /stats · GET /metrics · GET /trace · GET /images · GET /healthz</p>
</body>
</html>
`))

// dashboardData is the template's view model.
type dashboardData struct {
	Stats   Stats
	Recent  []Response
	Weights []expertWeight
}

// expertWeight is one committee member's weight row, name-sorted for a
// stable display.
type expertWeight struct {
	Name   string
	Weight float64
}

// handleDashboard serves the DefaultCampaign's HTML status page.
func (h *Handler) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET required"})
		return
	}
	c, ok := h.defaultHealth(w)
	if !ok {
		return
	}
	results, err := h.sup.Recent(supervise.DefaultCampaign)
	if err != nil {
		writeSupError(w, err)
		return
	}
	// Newest first for the operator.
	recent := make([]Response, len(results))
	for i, res := range results {
		recent[len(results)-1-i] = newResponse(res)
	}
	stats := newStats(h.sup, c, h.cfg.build)
	weights := make([]expertWeight, 0, len(stats.ExpertWeights))
	for name, wgt := range stats.ExpertWeights {
		weights = append(weights, expertWeight{Name: name, Weight: wgt})
	}
	sort.Slice(weights, func(a, b int) bool { return weights[a].Name < weights[b].Name })
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTemplate.Execute(w, dashboardData{Stats: stats, Recent: recent, Weights: weights}); err != nil {
		// Headers already sent; nothing more to do.
		_ = err
	}
}
