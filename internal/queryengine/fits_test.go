package queryengine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/pareto"
	"hpcadvisor/internal/plot"
	"hpcadvisor/internal/predictor"
)

// fitsStore builds a dataset with every shape the fit memo must keep
// byte-identical: three apps with two inputs each on three priced SKUs,
// noisy groups the quality gate rejects, groups below the evidence gate,
// failed runs, exact (id, time, cost) duplicates whose Metrics differ,
// twins with a new ID, two tag values, and one SKU whose points carry two
// aliases, so an alias filter cuts its groups short.
func fitsStore() *dataset.Store {
	s := dataset.NewStore()
	skus := [][2]string{{"Standard_HB120rs_v3", "hb120rs_v3"}, {"Standard_HB120rs_v2", "hb120rs_v2"}, {"Standard_HC44rs", "hc44rs"}}
	id := 0
	for ai, app := range []string{"lammps", "openfoam", "wrf"} {
		for in := 0; in < 2; in++ {
			for si, sku := range skus {
				nodes := []int{1, 2, 3, 4, 8, 16}
				if (ai+in+si)%5 == 4 {
					nodes = []int{2, 4} // below the evidence gate
				}
				for k, n := range nodes {
					t1 := 400 + 300*float64(ai) + 100*float64(in) + 50*float64(si)
					noise := 0.01 * math.Sin(float64(id))
					if (ai+si)%4 == 3 {
						noise = 0.5 * math.Sin(float64(7*id)) // fails the R² gate
					}
					sec := math.Round(t1*(0.05+0.95/float64(n))*(1+noise)*100) / 100
					alias := sku[1]
					if sku[1] == "hc44rs" && k%3 == 1 {
						alias = "hc44rs_b"
					}
					id++
					p := dataset.Point{
						ScenarioID: fmt.Sprintf("%s-%s-n%02d-%d", app, alias, n, id), AppName: app,
						SKU: sku[0], SKUAlias: alias, NNodes: n, PPN: 120,
						InputDesc:   fmt.Sprintf("size=%d", in),
						AppInput:    map[string]string{"SIZE": fmt.Sprint(in)},
						Tags:        map[string]string{"env": []string{"a", "b"}[id%2]},
						Metrics:     map[string]string{"run": "first"},
						ExecTimeSec: sec,
						CostUSD:     math.Round(float64(n)*sec*3.6/3600*1e4) / 1e4,
						Failed:      id%17 == 0,
					}
					s.Add(p)
					if id%5 == 0 {
						dup := p
						dup.Metrics = map[string]string{"run": "second"}
						s.Add(dup)
					}
					if id%7 == 0 {
						twin := p
						twin.ScenarioID += "-twin"
						s.Add(twin)
					}
				}
			}
		}
	}
	return s
}

func fitsFilters() []dataset.Filter {
	return []dataset.Filter{
		{},
		{AppName: "lammps"},
		{AppName: "WRF"},
		{AppName: "openfoam", InputDesc: "size=1"},
		{AppName: "lammps", InputDesc: "size=0", SKU: "hb120rs_v3"},
		{AppName: "wrf", InputDesc: "size=1", SKU: "hc44rs"},
		{AppName: "wrf", InputDesc: "size=1", SKU: "Standard_HC44rs"},
		{AppName: "lammps", SKU: "hc44rs_b"},
		{AppName: "lammps", MinNodes: 2},
		{AppName: "openfoam", MaxNodes: 8},
		{MinNodes: 3, MaxNodes: 16},
		{AppName: "lammps", Tags: map[string]string{"env": "a"}},
	}
}

var fitsGrids = [][]int{nil, {5, 10}, {1, 2, 4, 8, 16, 32, 64}, {7, 3, 7, 48}}

// servedArtifacts renders everything the engine serves from the predictor
// for one request.
func servedArtifacts(t *testing.T, e *Engine, f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) []byte {
	t.Helper()
	var b bytes.Buffer
	rows, err := json.Marshal(e.PredictedAdvice(f, order, cfg))
	if err != nil {
		t.Fatal(err)
	}
	b.Write(rows)
	b.WriteString(e.PredictedAdviceTable(f, order, cfg))
	fmt.Fprintf(&b, "%+v", e.Backtest(f, cfg))
	for _, name := range []string{"exectime_vs_nodes", "exectime_vs_cost"} {
		svg, err := e.PredictedSVG(name, f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(svg)
	}
	return b.Bytes()
}

// throwawayArtifacts renders the same request through the predictor with a
// throwaway memo: every group evaluated afresh from the filtered points.
func throwawayArtifacts(t *testing.T, store *dataset.Store, f dataset.Filter, order pareto.SortOrder, cfg predictor.Config) []byte {
	t.Helper()
	var b bytes.Buffer
	pts := store.Select(f)
	adv := predictor.Advice(nil, pts, cfg, order)
	rows, err := json.Marshal(adv)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(rows)
	b.WriteString(predictor.FormatAdviceTable(adv))
	fmt.Fprintf(&b, "%+v", predictor.Backtest(nil, pts, cfg))
	set := predictor.Overlay(nil, plot.BuildSet(store, f), pts, cfg)
	for _, name := range []string{"exectime_vs_nodes", "exectime_vs_cost"} {
		p, _ := set.ByName(name)
		b.Write(plot.RenderSVG(p))
	}
	return b.Bytes()
}

// checkMemoMatchesThrowaway serves every filter, grid and order through the
// engine's memo and compares each artifact with the throwaway-memo path.
func checkMemoMatchesThrowaway(t *testing.T, e *Engine, store *dataset.Store) {
	t.Helper()
	for _, f := range fitsFilters() {
		for gi, grid := range fitsGrids {
			for _, order := range []pareto.SortOrder{pareto.ByTime, pareto.ByCost} {
				cfg := predictedConfig(grid...)
				got := servedArtifacts(t, e, f, order, cfg)
				want := throwawayArtifacts(t, store, f, order, cfg)
				if !bytes.Equal(got, want) {
					t.Errorf("filter %+v grid %d order %d: memo path (%d bytes) differs from throwaway memo (%d bytes)", f, gi, order, len(got), len(want))
				}
			}
		}
	}
}

func TestFitMemoByteIdenticalToThrowaway(t *testing.T) {
	store := fitsStore()
	e := New(store, 0)
	checkMemoMatchesThrowaway(t, e, store)
	// The suite must exercise what it claims: predicted rows on the
	// served fronts and a backtest that scored folds.
	f := dataset.Filter{AppName: "lammps"}
	cfg := predictedConfig(5, 10)
	var predicted bool
	for _, r := range e.PredictedAdvice(f, pareto.ByTime, cfg) {
		predicted = predicted || r.Predicted
	}
	if !predicted || e.Backtest(f, cfg).Held == 0 {
		t.Fatal("fixture yields no predictions or no gated folds")
	}
}

func TestFitMemoAfterAppend(t *testing.T) {
	store := fitsStore()
	e := New(store, 0)
	for _, f := range fitsFilters() {
		e.PredictedAdvice(f, pareto.ByTime, predictedConfig(5, 10))
	}
	before := memoLen(e)
	// One group gains a node count it never measured.
	store.Add(dataset.Point{
		ScenarioID: "late-6", AppName: "lammps", SKU: "Standard_HB120rs_v3", SKUAlias: "hb120rs_v3",
		NNodes: 6, PPN: 120, InputDesc: "size=0", ExecTimeSec: 95.5, CostUSD: 0.57,
	})
	checkMemoMatchesThrowaway(t, e, store)
	if before == 0 || memoLen(e) == 0 {
		t.Fatalf("memo unused: %d groups before the append, %d after", before, memoLen(e))
	}
}

// memoLen returns how many group evaluations the engine's current fit memo
// holds.
func memoLen(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fits.Len()
}

// groupCount counts the (app, input, SKU) groups with successful points.
func groupCount(pts []dataset.Point) int {
	seen := map[[3]string]bool{}
	for _, p := range pts {
		if !p.Failed {
			seen[[3]string{p.AppName, p.InputDesc, p.SKU}] = true
		}
	}
	return len(seen)
}

func TestFitMemoBoundedByGroupCount(t *testing.T) {
	store := fitsStore()
	e := New(store, 0)
	groups := groupCount(store.Select(dataset.Filter{}))
	for i := 0; i < 200; i++ {
		cfg := predictedConfig(1+i%40, 41+i, 300+7*i)
		for _, f := range fitsFilters() {
			e.PredictedAdvice(f, pareto.ByCost, cfg)
		}
	}
	if got := memoLen(e); got != groups {
		t.Fatalf("memo holds %d entries after 200 distinct grids, want the %d groups", got, groups)
	}
}

func TestFitMemoSharedByConcurrentAppWideRequests(t *testing.T) {
	store := fitsStore()
	e := New(store, 0)
	f := dataset.Filter{AppName: "lammps"}
	const readers = 16
	var wg sync.WaitGroup
	results := make([][]predictor.Row, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.PredictedAdvice(f, pareto.ByTime, predictedConfig(5, 10+i))
		}(i)
	}
	wg.Wait()
	if got, want := memoLen(e), groupCount(store.Select(f)); got != want {
		t.Fatalf("memo holds %d entries, want %d (one per lammps group)", got, want)
	}
	for i, rows := range results {
		want := predictor.Advice(nil, store.Select(f), predictedConfig(5, 10+i), pareto.ByTime)
		a, _ := json.Marshal(rows)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Errorf("reader %d: concurrent memo result differs from the throwaway memo", i)
		}
	}
}

func TestBacktestKeyedByFitParameters(t *testing.T) {
	e := New(fitsStore(), 0)
	f := dataset.Filter{AppName: "openfoam"}
	first := e.Backtest(f, predictedConfig(5, 10))
	for _, cfg := range []predictor.Config{predictedConfig(7, 64), predictedConfig(5, 10), predictedConfig()} {
		cfg.Region = "westeurope"
		if got := e.Backtest(f, cfg); got != first {
			t.Fatalf("backtest changed with grid or region: %+v vs %+v", got, first)
		}
	}
	if got := e.Backtest(f, predictedConfig(7, 64)); got != first {
		t.Fatalf("backtest changed with grid: %+v vs %+v", got, first)
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("two grids and two regions cost %d backtest misses (%d hits), want 1", st.Misses, st.Hits)
	}
	cfg := predictedConfig(5, 10)
	cfg.MinR2 = 0.5
	e.Backtest(f, cfg)
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("a different quality gate shared the backtest entry: %+v", st)
	}
}
