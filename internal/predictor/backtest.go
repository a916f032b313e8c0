package predictor

import (
	"fmt"
	"math"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/regression"
)

// BacktestReport summarizes a leave-one-out backtest: each measured point is
// held out in turn, both model families are refit on the rest of its group,
// and the held-out execution time is predicted. MAPE is reported per model
// family (regression.MeanAbsPctError) over every refit, plus the
// selected-model MAPE — the error a user of PredictedAdvice experiences:
// only folds whose better refit clears the R² quality gate count, exactly
// the fits the advice path would serve.
type BacktestReport struct {
	// Groups is how many (app, input, SKU) groups had enough points to
	// backtest; Held counts the folds whose selected refit cleared the
	// quality gate (the denominator of SelectedMAPE).
	Groups int `json:"groups"`
	Held   int `json:"held"`

	AmdahlMAPE   float64 `json:"amdahl_mape"`
	PowerLawMAPE float64 `json:"powerlaw_mape"`
	SelectedMAPE float64 `json:"selected_mape"`
}

// String renders the report as one summary line.
func (r BacktestReport) String() string {
	if r.Groups == 0 {
		return "backtest: insufficient data (no group has enough measured node counts)"
	}
	if r.Held == 0 {
		return fmt.Sprintf(
			"backtest (leave-one-out, %d groups): no refit cleared the R² quality gate — predictions would not be served; ungated amdahl MAPE %.1f%%, powerlaw MAPE %.1f%%",
			r.Groups, r.AmdahlMAPE, r.PowerLawMAPE)
	}
	return fmt.Sprintf(
		"backtest (leave-one-out, %d groups, %d held-out points): amdahl MAPE %.1f%%, powerlaw MAPE %.1f%%, selected-model MAPE %.1f%%",
		r.Groups, r.Held, r.AmdahlMAPE, r.PowerLawMAPE, r.SelectedMAPE)
}

// fold is one leave-one-out refit: the held-out time and each family's
// prediction of it. A family that could not refit has ok false; sel is set
// only when the better refit clears the quality gate.
type fold struct {
	obs         float64
	am, pw, sel float64
	amOK, pwOK  bool
	selOK       bool
}

// groupFolds runs one group's leave-one-out refits, when the group has the
// MinPoints distinct node counts Fit would ask of it.
func groupFolds(g *group, cfg Config) (tested bool, folds []fold) {
	if len(distinctNodes(g.nodes)) < cfg.minPoints() {
		return false, nil
	}
	nodes := make([]int, 0, len(g.nodes)-1)
	times := make([]float64, 0, len(g.nodes)-1)
	for hold := range g.nodes {
		nodes, times = nodes[:0], times[:0]
		for i := range g.nodes {
			if i != hold {
				nodes = append(nodes, g.nodes[i])
				times = append(times, g.times[i])
			}
		}
		am, amR2, pw, pwR2 := fitBoth(nodes, times)
		f := fold{obs: g.times[hold], amOK: !math.IsInf(amR2, -1), pwOK: !math.IsInf(pwR2, -1)}
		if !f.amOK && !f.pwOK {
			continue
		}
		heldN := g.nodes[hold]
		f.am, f.pw = am.Predict(heldN), pw.Predict(float64(heldN))
		// Selected-model error mirrors what PredictedAdvice serves: the
		// better family per refit, and only when it clears the quality
		// gate — a fold the gate rejects would never reach a user.
		selT, selR2 := f.am, amR2
		if f.pwOK && (!f.amOK || pwR2 > amR2) {
			selT, selR2 = f.pw, pwR2
		}
		if selR2 >= cfg.minR2() {
			f.sel, f.selOK = selT, true
		}
		folds = append(folds, f)
	}
	return true, folds
}

// Backtest runs the leave-one-out evaluation over every group Fit would
// serve predictions for (at least MinPoints distinct measured node counts).
// Each refit has one point fewer than the served fit, so the backtest is
// the honest approximation of served-fit error rather than a strict mirror
// of the evidence gate. Folds come from memo where it holds the group (nil
// refits every group).
func Backtest(memo *Fits, points []dataset.Point, cfg Config) BacktestReport {
	var rep BacktestReport
	// Paired (observation, prediction) arrays per family: a family that
	// cannot refit on one fold simply skips that fold instead of poisoning
	// its MAPE with a NaN.
	var amObs, amPred, pwObs, pwPred, selObs, selPred []float64
	for _, g := range groupPoints(points) {
		tested, folds := memo.folds(&g, cfg)
		if !tested {
			continue
		}
		rep.Groups++
		for _, f := range folds {
			if f.amOK {
				amObs = append(amObs, f.obs)
				amPred = append(amPred, f.am)
			}
			if f.pwOK {
				pwObs = append(pwObs, f.obs)
				pwPred = append(pwPred, f.pw)
			}
			if f.selOK {
				selObs = append(selObs, f.obs)
				selPred = append(selPred, f.sel)
			}
		}
	}
	rep.Held = len(selObs)
	if len(amObs) > 0 {
		rep.AmdahlMAPE = regression.MeanAbsPctError(amObs, amPred)
	}
	if len(pwObs) > 0 {
		rep.PowerLawMAPE = regression.MeanAbsPctError(pwObs, pwPred)
	}
	if rep.Held > 0 {
		rep.SelectedMAPE = regression.MeanAbsPctError(selObs, selPred)
	}
	return rep
}
