// Package predictor serves advice for scenarios that were never run. It is
// the paper's Section III-F vision — advice "with minimal or no executions
// in the cloud" — taken to its conclusion: for every (application, input,
// SKU) group in the collected dataset it fits both the Amdahl strong-scaling
// model and the log-log power law from internal/regression, selects the
// better fit by R² behind a quality gate, and synthesizes predicted
// datapoints across a configurable node-count grid, including node counts
// never collected. Each synthesized point carries a prediction interval
// derived from the fit residuals and a cost computed from the price book.
//
// The marking contract: a predicted row is distinguishable from a measured
// row everywhere it surfaces. Row.Predicted is the flag, Row.Source()
// renders it for tables, predicted scenario IDs carry the "pred-" prefix,
// and predictions are synthesized only at (group, node count) holes — on a
// fully measured grid the merged advice is byte-identical to measured
// advice, and a predicted row can never displace a measured point at the
// same scenario.
package predictor

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/pricing"
	"hpcadvisor/internal/regression"
)

// Model family names reported on rows and in backtests.
const (
	ModelAmdahl   = "amdahl"
	ModelPowerLaw = "powerlaw"
)

// PredictedIDPrefix starts every synthesized scenario ID, so predicted rows
// stay distinguishable even as bare dataset.Points.
const PredictedIDPrefix = "pred-"

// Defaults used when Config fields are zero.
const (
	DefaultMinPoints = 3
	DefaultMinR2     = 0.90
	DefaultIntervalZ = 1.96
)

// Config tunes prediction.
type Config struct {
	// Grid is the set of node counts to predict at; counts already measured
	// for a group are never re-synthesized. Empty derives DefaultGrid from
	// the measured data.
	Grid []int
	// MinPoints is the minimum number of distinct measured node counts a
	// group needs before its fit is trusted (default 3).
	MinPoints int
	// MinR2 is the quality gate: groups whose better model explains less
	// than this fraction of variance yield no predictions (default 0.90).
	MinR2 float64
	// Prices and Region cost the synthesized points. Both are required for
	// prediction — a point without a cost cannot sit on a time/cost front.
	Prices *pricing.PriceBook
	Region string
	// IntervalZ scales the residual-derived prediction interval (default
	// 1.96, a ~95% normal interval).
	IntervalZ float64
}

func (c Config) minPoints() int {
	if c.MinPoints > 0 {
		return c.MinPoints
	}
	return DefaultMinPoints
}

func (c Config) minR2() float64 {
	if c.MinR2 > 0 {
		return c.MinR2
	}
	return DefaultMinR2
}

func (c Config) intervalZ() float64 {
	if c.IntervalZ > 0 {
		return c.IntervalZ
	}
	return DefaultIntervalZ
}

// Key renders the prediction-relevant parameters as a deterministic cache
// key fragment; the query engine combines it with the canonical filter and
// the store generation. The price book's identity is not part of the key —
// engines serve one advisor, which owns one price book.
func (c Config) Key() string {
	var b strings.Builder
	b.WriteString("grid=")
	for i, n := range c.Grid {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(n))
	}
	fmt.Fprintf(&b, "|"+fitKeyFormat+"|z=%g|rg=%s",
		c.minPoints(), c.minR2(), c.intervalZ(), strings.ToLower(c.Region))
	return b.String()
}

// fitKeyFormat renders MinPoints and MinR2, the fragment Key and FitKey
// share.
const fitKeyFormat = "mp=%d|r2=%g"

// FitKey renders the parameters the fits and the backtest read — MinPoints
// and MinR2 — as a cache key fragment. Results that depend only on the fits
// are keyed by it, so they are shared across grids and regions.
func (c Config) FitKey() string {
	return fmt.Sprintf(fitKeyFormat, c.minPoints(), c.minR2())
}

// Row is one merged-advice row: a measured datapoint, or a model-synthesized
// one carrying its provenance and prediction interval.
type Row struct {
	dataset.Point
	// Predicted marks synthesized rows; measured rows leave it false and the
	// remaining fields zero.
	Predicted bool `json:"predicted,omitempty"`
	// Model is the family that produced the prediction (ModelAmdahl or
	// ModelPowerLaw).
	Model string `json:"model,omitempty"`
	// R2 is the selected model's goodness of fit over the group's measured
	// points.
	R2 float64 `json:"r2,omitempty"`
	// TimeLoSec and TimeHiSec bound the predicted execution time: the point
	// estimate ± IntervalZ standard deviations of the fit residuals, floored
	// at zero.
	TimeLoSec float64 `json:"time_lo_sec,omitempty"`
	TimeHiSec float64 `json:"time_hi_sec,omitempty"`
	// CostLoUSD and CostHiUSD are the interval endpoints priced like the
	// point estimate (cost is linear in time).
	CostLoUSD float64 `json:"cost_lo_usd,omitempty"`
	CostHiUSD float64 `json:"cost_hi_usd,omitempty"`
}

// Source renders the row's provenance for tables: "measured", or the model
// family with its fit quality, e.g. "predicted/amdahl R2=0.99".
func (r Row) Source() string {
	if !r.Predicted {
		return "measured"
	}
	return fmt.Sprintf("predicted/%s R2=%.2f", r.Model, r.R2)
}

// GroupFit is the selected scaling model for one (application, input, SKU)
// group of measured points.
type GroupFit struct {
	AppName   string
	SKU       string
	SKUAlias  string
	PPN       int
	InputDesc string
	AppInput  map[string]string
	Tags      map[string]string

	// Model is the better-fitting family; Amdahl wins ties.
	Model  string
	Amdahl regression.Amdahl
	Power  regression.PowerLaw
	// R2 is the selected model's coefficient of determination.
	R2 float64
	// ResidSD is the standard deviation of the selected model's residuals
	// (seconds), the basis of every prediction interval.
	ResidSD float64

	// MeasuredNodes are the distinct measured node counts, ascending.
	MeasuredNodes []int
}

// Predict evaluates the selected model at n nodes.
func (g GroupFit) Predict(n int) float64 {
	if g.Model == ModelPowerLaw {
		return g.Power.Predict(float64(n))
	}
	return g.Amdahl.Predict(n)
}

// fitBoth fits both model families to (nodes, times) and returns each with
// its R²; a family that cannot fit reports R² of -Inf.
func fitBoth(nodes []int, times []float64) (am regression.Amdahl, amR2 float64, pw regression.PowerLaw, pwR2 float64) {
	amR2, pwR2 = math.Inf(-1), math.Inf(-1)
	if a, err := regression.FitAmdahl(nodes, times); err == nil {
		pred := make([]float64, len(nodes))
		for i, n := range nodes {
			pred[i] = a.Predict(n)
		}
		am, amR2 = a, regression.RSquared(times, pred)
	}
	xs := make([]float64, len(nodes))
	for i, n := range nodes {
		xs[i] = float64(n)
	}
	if p, err := regression.FitPowerLaw(xs, times); err == nil {
		pred := make([]float64, len(nodes))
		for i, n := range nodes {
			pred[i] = p.Predict(float64(n))
		}
		pw, pwR2 = p, regression.RSquared(times, pred)
	}
	return am, amR2, pw, pwR2
}

// fitGroup fits one group and reports whether it passes the evidence and
// quality gates.
func fitGroup(g *group, cfg Config) (GroupFit, bool) {
	nodesDistinct := distinctNodes(g.nodes)
	if len(nodesDistinct) < cfg.minPoints() {
		return GroupFit{}, false
	}
	am, amR2, pw, pwR2 := fitBoth(g.nodes, g.times)
	fit := GroupFit{
		AppName:       g.head.AppName,
		SKU:           g.head.SKU,
		SKUAlias:      g.head.SKUAlias,
		PPN:           g.head.PPN,
		InputDesc:     g.head.InputDesc,
		AppInput:      g.head.AppInput,
		Tags:          g.head.Tags,
		Amdahl:        am,
		Power:         pw,
		MeasuredNodes: nodesDistinct,
	}
	if pwR2 > amR2 {
		fit.Model, fit.R2 = ModelPowerLaw, pwR2
	} else {
		fit.Model, fit.R2 = ModelAmdahl, amR2
	}
	if math.IsInf(fit.R2, -1) || math.IsNaN(fit.R2) || fit.R2 < cfg.minR2() {
		return GroupFit{}, false
	}
	// Residual spread with a regression degrees-of-freedom correction (two
	// fitted parameters in both families).
	var sse float64
	for i, n := range g.nodes {
		d := g.times[i] - fit.Predict(n)
		sse += d * d
	}
	dof := len(g.nodes) - 2
	if dof < 1 {
		dof = 1
	}
	fit.ResidSD = math.Sqrt(sse / float64(dof))
	return fit, true
}

// Fit fits every (app, input, SKU) group in points that passes the evidence
// and quality gates, deterministically ordered. Failed points are never
// evidence. Fits come from memo where it holds the group (nil computes
// every group afresh); their MeasuredNodes may be shared and are read-only.
func Fit(memo *Fits, points []dataset.Point, cfg Config) []GroupFit {
	var out []GroupFit
	for _, fit := range fitted(memo, points, cfg) {
		out = append(out, *fit)
	}
	return out
}

// fitted is Fit without copying the fits out of the memo: the results are
// shared and read-only.
func fitted(memo *Fits, points []dataset.Point, cfg Config) []*GroupFit {
	var out []*GroupFit
	for _, g := range groupPoints(points) {
		if fit := memo.fit(&g, cfg); fit != nil {
			out = append(out, fit)
		}
	}
	return out
}

// DefaultGrid derives a node grid from the measured data: every measured
// node count, plus powers of two up to twice the largest measured count —
// so the default prediction both fills holes and extrapolates one doubling
// beyond the sweep.
func DefaultGrid(points []dataset.Point) []int {
	seen := make(map[int]bool)
	var out []int
	add := func(n int) {
		if n >= 1 && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	max := 0
	for _, p := range points {
		if p.Failed {
			continue
		}
		add(p.NNodes)
		if p.NNodes > max {
			max = p.NNodes
		}
	}
	for n := 1; n <= 2*max; n *= 2 {
		add(n)
	}
	sort.Ints(out)
	return out
}

// predictedID builds the synthesized scenario ID. The "pred-" prefix keeps
// predicted rows identifiable as bare points and collision-free with
// measured scenario IDs; the input-description hash keeps groups that
// differ only in application input collision-free with each other.
func predictedID(g *GroupFit, n int) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%d", g.InputDesc, g.PPN)
	return fmt.Sprintf("%s%s-%s-n%02d-%s-%08x", PredictedIDPrefix, g.AppName, g.SKUAlias, n, g.Model, h.Sum32())
}

// predictionGrid is the grid predictions are synthesized across: the
// configured one, or DefaultGrid, with non-positive and repeated node counts
// dropped (the first occurrence keeps its place).
func predictionGrid(points []dataset.Point, cfg Config) []int {
	if len(cfg.Grid) == 0 {
		return DefaultGrid(points)
	}
	out := make([]int, 0, len(cfg.Grid))
	for _, n := range cfg.Grid {
		if n >= 1 && !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// prediction is one synthesized (group, node count) estimate: its time and
// cost, which place it on a front, and its time interval. row dresses it as
// a Row.
type prediction struct {
	fit        *GroupFit
	nodes      int
	time, cost float64
	lo, hi     float64
}

// predictions appends one fitted group's predictions across grid (see
// predictionGrid), skipping measured node counts and unpriceable or
// degenerate predictions.
func predictions(dst []prediction, g *GroupFit, grid []int, cfg Config) []prediction {
	for _, n := range grid {
		if _, measured := slices.BinarySearch(g.MeasuredNodes, n); measured {
			continue
		}
		predTime := g.Predict(n)
		if predTime <= 0 || math.IsNaN(predTime) || math.IsInf(predTime, 0) {
			continue
		}
		cost, err := cfg.Prices.Cost(cfg.Region, g.SKU, n, predTime)
		if err != nil {
			continue
		}
		// Interval gate: when the residual spread swallows the estimate
		// itself (the lower bound would be zero or negative), the
		// extrapolation cannot even rule out instantaneous execution — that
		// is not advice, so the point is dropped rather than synthesized.
		lo := predTime - cfg.intervalZ()*g.ResidSD
		if lo <= 0 && g.ResidSD > 0 {
			continue
		}
		if lo < 0 {
			lo = 0
		}
		hi := predTime + cfg.intervalZ()*g.ResidSD
		dst = append(dst, prediction{fit: g, nodes: n, time: predTime, cost: cost, lo: lo, hi: hi})
	}
	return dst
}

// row renders the prediction as a marked Row, its interval priced like the
// point estimate.
func (p *prediction) row(cfg Config) Row {
	g := p.fit
	costLo, _ := cfg.Prices.Cost(cfg.Region, g.SKU, p.nodes, p.lo)
	costHi, _ := cfg.Prices.Cost(cfg.Region, g.SKU, p.nodes, p.hi)
	return Row{
		Point: dataset.Point{
			ScenarioID:  predictedID(g, p.nodes),
			AppName:     g.AppName,
			SKU:         g.SKU,
			SKUAlias:    g.SKUAlias,
			NNodes:      p.nodes,
			PPN:         g.PPN,
			AppInput:    g.AppInput,
			InputDesc:   g.InputDesc,
			Tags:        g.Tags,
			ExecTimeSec: p.time,
			CostUSD:     p.cost,
		},
		Predicted: true,
		Model:     g.Model,
		R2:        g.R2,
		TimeLoSec: p.lo,
		TimeHiSec: p.hi,
		CostLoUSD: costLo,
		CostHiUSD: costHi,
	}
}

// allPredictions synthesizes every fitted group's predictions, in Fit
// order; nil when no price book or region is configured.
func allPredictions(memo *Fits, points []dataset.Point, cfg Config) []prediction {
	if cfg.Prices == nil || cfg.Region == "" {
		return nil
	}
	grid := predictionGrid(points, cfg)
	var out []prediction
	for _, fit := range fitted(memo, points, cfg) {
		out = predictions(out, fit, grid, cfg)
	}
	return out
}

// Rows merges the measured points with model-synthesized rows at every grid
// node count a group never measured. Measured rows always win: predictions
// only fill holes, so on a fully measured grid Rows returns exactly the
// measured data and no phantom rows.
func Rows(memo *Fits, points []dataset.Point, cfg Config) []Row {
	var out []Row
	for _, p := range points {
		if p.Failed {
			continue
		}
		out = append(out, Row{Point: p})
	}
	preds := allPredictions(memo, points, cfg)
	for i := range preds {
		out = append(out, preds[i].row(cfg))
	}
	return out
}

// Advice returns the Pareto front of Rows in the requested order — the
// engine behind "advice -predict". Predicted rows on the front keep their
// marking and intervals. The front is computed over (time, cost) columns
// and only its entries become Rows.
func Advice(memo *Fits, points []dataset.Point, cfg Config, order pareto.SortOrder) []Row {
	preds := allPredictions(memo, points, cfg)
	// Position i < len(points) is measured point i; the rest are
	// predictions, in the order Rows lists them.
	n := len(points) + len(preds)
	times := make([]float64, n)
	costs := make([]float64, n)
	cand := make([]int32, 0, n)
	for i := range points {
		times[i], costs[i] = points[i].ExecTimeSec, points[i].CostUSD
		if !points[i].Failed {
			cand = append(cand, int32(i))
		}
	}
	for j := range preds {
		i := len(points) + j
		times[i], costs[i] = preds[j].time, preds[j].cost
		cand = append(cand, int32(i))
	}
	front := dataset.Skyline(cand, times, costs)
	id := func(i int) string {
		if i < len(points) {
			return points[i].ScenarioID
		}
		return predictedID(preds[i-len(points)].fit, preds[i-len(points)].nodes)
	}
	// Rows are correlated back to front entries by (ID, time, cost), not by
	// position: a dataset can legitimately carry duplicate scenario IDs with
	// different measurements (re-collections, merged datasets), and the
	// front row is the last row with the entry's (ID, time, cost). Front
	// times strictly rise, so each row finds its entry's slot by binary
	// search.
	src := make([]int, len(front))
	frontID := make([]string, len(front))
	for s, i := range front {
		frontID[s] = id(int(i))
	}
	for i := 0; i < n; i++ {
		if i < len(points) && points[i].Failed {
			continue
		}
		s, found := slices.BinarySearchFunc(front, times[i], func(f int32, t float64) int {
			return cmp.Compare(times[f], t)
		})
		if found && costs[front[s]] == costs[i] && id(i) == frontID[s] {
			src[s] = i
		}
	}
	out := make([]Row, len(front))
	for s, i := range src {
		if i < len(points) {
			out[s] = Row{Point: points[i]}
		} else {
			out[s] = preds[i-len(points)].row(cfg)
		}
	}
	if order == pareto.ByCost {
		slices.Reverse(out)
	}
	return out
}

// FormatAdviceTable renders merged advice like the paper's Listings 3-4 plus
// a Source column that marks every predicted row with its model family, fit
// quality, and time interval:
//
//	Exectime(s)  Cost($)  Nodes  SKU         Source
//	34           0.5440   16     hb120rs_v3  measured
//	28           0.6720   32     hb120rs_v3  predicted/amdahl R2=0.99 [26..30s]
func FormatAdviceTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-6s %-12s %s\n", "Exectime(s)", "Cost($)", "Nodes", "SKU", "Source")
	for _, r := range rows {
		src := r.Source()
		if r.Predicted {
			src += fmt.Sprintf(" [%.0f..%.0fs]", r.TimeLoSec, r.TimeHiSec)
		}
		fmt.Fprintf(&b, "%-12.0f %-8.4f %-6d %-12s %s\n", r.ExecTimeSec, r.CostUSD, r.NNodes, r.SKUAlias, src)
	}
	return b.String()
}
