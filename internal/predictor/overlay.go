package predictor

import (
	"math"
	"sort"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/plot"
)

// curveSamples is how many node counts each fitted curve is evaluated at:
// geometrically spaced integers covering the group's measured range out to
// the prediction grid, enough for a smooth polyline.
const curveSamples = 33

// curveNodes returns the node counts a fitted curve is sampled at: the full
// span of measured and grid counts, so every synthesized point — above or
// below the measured range — sits on the drawn curve and inside its band.
func curveNodes(g *GroupFit, grid []int) []int {
	lo := g.MeasuredNodes[0]
	hi := g.MeasuredNodes[len(g.MeasuredNodes)-1]
	for _, n := range grid {
		if n >= 1 && n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi <= lo {
		return []int{lo}
	}
	ratio := float64(hi) / float64(lo)
	seen := make(map[int]bool)
	var out []int
	for i := 0; i < curveSamples; i++ {
		f := float64(i) / float64(curveSamples-1)
		n := int(float64(lo)*math.Pow(ratio, f) + 0.5)
		if n < lo {
			n = lo
		}
		if n > hi {
			n = hi
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// Overlay returns the plot set with predicted overlays on the exectime and
// cost plots: per fitted group, a translucent prediction-interval band and a
// dashed fitted curve on ExecTimeVsNodes, and dashed predicted (time, cost)
// points on ExecTimeVsCost. Other plots pass through unchanged. Overlay
// series are named "<sku> (predicted)" so they stay distinguishable in
// legends; measured series are never modified.
func Overlay(memo *Fits, set plot.Set, points []dataset.Point, cfg Config) plot.Set {
	if cfg.Prices == nil || cfg.Region == "" {
		return set
	}
	grid := predictionGrid(points, cfg)
	// The incoming set may be a cached value whose Series slices are shared
	// (the query engine hands out its memoized measured set); clip their
	// capacity so the appends below always reallocate instead of writing
	// into a shared backing array.
	set.ExecTimeVsNodes.Series = set.ExecTimeVsNodes.Series[:len(set.ExecTimeVsNodes.Series):len(set.ExecTimeVsNodes.Series)]
	set.ExecTimeVsCost.Series = set.ExecTimeVsCost.Series[:len(set.ExecTimeVsCost.Series):len(set.ExecTimeVsCost.Series)]
	var preds []prediction
	for _, g := range fitted(memo, points, cfg) {
		name := g.SKUAlias + " (predicted)"

		// ExecTimeVsNodes: interval band first (under the curve), then the
		// dashed fitted curve.
		nodes := curveNodes(g, grid)
		var band plot.Series
		band.Band = true
		var curve plot.Series
		curve.Name = name
		curve.Dashed = true
		for _, n := range nodes {
			t := g.Predict(n)
			if t <= 0 {
				continue
			}
			lo := t - cfg.intervalZ()*g.ResidSD
			if lo < 0 {
				lo = 0
			}
			band.Points = append(band.Points, plot.XY{X: float64(n), Y: lo})
			curve.Points = append(curve.Points, plot.XY{X: float64(n), Y: t})
		}
		for j := len(curve.Points) - 1; j >= 0; j-- {
			n := curve.Points[j].X
			band.Points = append(band.Points, plot.XY{X: n, Y: curve.Points[j].Y + cfg.intervalZ()*g.ResidSD})
		}
		if len(curve.Points) > 1 {
			set.ExecTimeVsNodes.Series = append(set.ExecTimeVsNodes.Series, band, curve)
		}

		// ExecTimeVsCost: the synthesized (time, cost) points at grid holes.
		var costSeries plot.Series
		costSeries.Name = name
		costSeries.Scatter = true
		costSeries.Dashed = true
		preds = predictions(preds[:0], g, grid, cfg)
		for _, p := range preds {
			costSeries.Points = append(costSeries.Points, plot.XY{X: p.time, Y: p.cost})
		}
		sort.Slice(costSeries.Points, func(a, b int) bool { return costSeries.Points[a].X < costSeries.Points[b].X })
		if len(costSeries.Points) > 0 {
			set.ExecTimeVsCost.Series = append(set.ExecTimeVsCost.Series, costSeries)
		}
	}
	return set
}
