package predictor

import (
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
)

// memoSnapshot builds a snapshot of two inputs on three SKUs, each a clean
// Amdahl sweep over six node counts: six groups.
func memoSnapshot(t *testing.T) *dataset.Snapshot {
	t.Helper()
	s := dataset.NewStore()
	skus := [][2]string{{"Standard_HB120rs_v3", "hb120rs_v3"}, {"Standard_HB120rs_v2", "hb120rs_v2"}, {"Standard_HC44rs", "hc44rs"}}
	for _, input := range []string{"atoms=864M", "atoms=1B"} {
		for i, sku := range skus {
			for _, n := range []int{1, 2, 3, 4, 8, 16} {
				p := amdahlPoint(t, sku[0], sku[1], n, 800+100*float64(i), 0.04)
				p.InputDesc = input
				p.ScenarioID += "-" + input
				s.Add(p)
			}
		}
	}
	return s.Snapshot()
}

func countEvals(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	testHookEval = func() { n.Add(1) }
	t.Cleanup(func() { testHookEval = nil })
	return &n
}

func TestFitsConcurrentRequestsShareOneEvaluation(t *testing.T) {
	sn := memoSnapshot(t)
	evals := countEvals(t)
	memo := NewFits(sn)
	pts := sn.Select(dataset.Filter{AppName: "lammps"})
	const readers = 16
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := testConfig()
			cfg.Grid = []int{5, 10 + i}
			got, _ := json.Marshal(Advice(memo, pts, cfg, pareto.ByCost))
			want, _ := json.Marshal(Advice(nil, pts, cfg, pareto.ByCost))
			if string(got) != string(want) {
				t.Errorf("reader %d: memoized advice differs from the throwaway memo", i)
			}
			if Backtest(memo, pts, cfg) != Backtest(nil, pts, cfg) {
				t.Errorf("reader %d: memoized backtest differs from the throwaway memo", i)
			}
		}(i)
	}
	wg.Wait()
	if got := evals.Load(); got != 6 {
		t.Fatalf("%d readers ran %d group evaluations, want one per group (6)", readers, got)
	}
	if memo.Len() != 6 {
		t.Fatalf("memo holds %d entries, want 6", memo.Len())
	}
}

func TestFitsCutGroupsEvaluatedAfresh(t *testing.T) {
	sn := memoSnapshot(t)
	memo := NewFits(sn)
	cfg := testConfig()
	cfg.Grid = []int{6, 12, 32}
	for _, f := range []dataset.Filter{{MinNodes: 2}, {MaxNodes: 8}, {}} {
		pts := sn.Select(f)
		if got, want := Fit(memo, pts, cfg), Fit(nil, pts, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("filter %+v: memoized fits differ from the throwaway memo", f)
		}
		if got, want := Backtest(memo, pts, cfg), Backtest(nil, pts, cfg); got != want {
			t.Errorf("filter %+v: memoized backtest %+v, throwaway %+v", f, got, want)
		}
	}
	if memo.Len() != 6 {
		t.Fatalf("memo holds %d entries, want one per group (6)", memo.Len())
	}
}

func TestThrowawayMemoKeepsNothing(t *testing.T) {
	sn := memoSnapshot(t)
	evals := countEvals(t)
	for _, memo := range []*Fits{nil, NewFits(nil)} {
		if fits := Fit(memo, sn.Select(dataset.Filter{}), testConfig()); len(fits) != 6 {
			t.Fatalf("throwaway memo fitted %d groups, want 6", len(fits))
		}
		if memo.Len() != 0 {
			t.Fatalf("throwaway memo kept %d entries", memo.Len())
		}
	}
	if evals.Load() != 0 {
		t.Fatalf("throwaway memo ran %d memoized evaluations", evals.Load())
	}
}
