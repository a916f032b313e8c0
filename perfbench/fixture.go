package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hpcadvisor/internal/collector"
	"hpcadvisor/internal/config"
	"hpcadvisor/internal/core"
	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/scenario"
	"hpcadvisor/internal/storage"
)

// The served dataset is built by the program's own collector from the
// seed: a journaled sweep over the simulated cloud into a segment store,
// compacted to a v2 snapshot. The seed picks the application inputs; the
// shape (apps x inputs x SKUs x node counts) is fixed per size, so runs
// with different seeds do the same amount of work.

const region = "southcentralus"

// fixtureSize is the shape of a fixture and of live-collect's sweep.
type fixtureSize struct {
	Apps       int   // applications, taken in fixtureApps order
	Inputs     int   // inputs per application in the served dataset
	SKUs       int   // VM types, all available in region
	Nodes      []int // node counts of every sweep
	LiveInputs int   // new inputs per application in live-collect's sweep
}

var sizes = map[string]fixtureSize{
	// 4 x 40 x 8 x 10 = 12,800 points served; 4 x 6 x 8 x 10 = 1,920
	// scenarios per live-collect sweep.
	"full": {Apps: 4, Inputs: 40, SKUs: 8, Nodes: []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}, LiveInputs: 6},
	// The self-test's fixture: 2 x 3 x 2 x 3 = 36 points.
	"tiny": {Apps: 2, Inputs: 3, SKUs: 2, Nodes: []int{1, 2, 4}, LiveInputs: 1},
}

// appSpec names an application's input parameter and draws values for it.
// The key must be one the application model parses: an unknown key
// silently falls back to the model's default input, collapsing every
// drawn input onto one description — checkSweepGroups catches that.
type appSpec struct {
	name string
	key  string
	draw func(r *rand.Rand) string
}

var fixtureApps = []appSpec{
	{"lammps", "BOXFACTOR", func(r *rand.Rand) string {
		return strconv.FormatFloat(12+r.Float64()*28, 'f', 2, 64)
	}},
	{"openfoam", "BLOCKMESH_DIMENSIONS", func(r *rand.Rand) string {
		return fmt.Sprintf("%d %d %d", 20+r.Intn(61), 8+r.Intn(17), 8+r.Intn(17))
	}},
	{"wrf", "RESOLUTION", func(r *rand.Rand) string {
		return strconv.FormatFloat(1.5+r.Float64()*6, 'f', 2, 64)
	}},
	{"matmul", "MATRIXSIZE", func(r *rand.Rand) string {
		return strconv.Itoa(2048 + 64*r.Intn(225))
	}},
}

// appInputs is one application's drawn inputs: parameter values and the
// input descriptions the application model gives them (the dataset's
// input_desc, which the input filter matches).
type appInputs struct {
	Name   string   `json:"name"`
	Key    string   `json:"key"`
	Values []string `json:"values"`
	Descs  []string `json:"descs"`
}

type skuRef struct {
	Name  string `json:"name"`
	Alias string `json:"alias"`
}

// fixture is the manifest of a generated dataset.
type fixture struct {
	Seed   int64       `json:"seed"`
	Size   string      `json:"size"`
	Region string      `json:"region"`
	Store  string      `json:"store"`
	SKUs   []skuRef    `json:"skus"`
	Nodes  []int       `json:"nodes"`
	Apps   []appInputs `json:"apps"`
	Live   []appInputs `json:"live"`
	Points int         `json:"points"`
	Inputs int         `json:"distinct_inputs"`
	Bytes  int64       `json:"store_bytes"`
	Failed int         `json:"failed_scenarios"`
	SweepS float64     `json:"sweep_s"`
}

// planFixture draws the inputs of a fixture and of live-collect's sweep
// from the seed. Inputs whose description repeats an earlier one are
// redrawn, so every drawn input is a distinct series in the dataset.
func planFixture(seed int64, sizeName string) (*fixture, error) {
	size, ok := sizes[sizeName]
	if !ok {
		return nil, fmt.Errorf("unknown fixture size %q", sizeName)
	}
	adv := core.New("perfbench")
	fx := &fixture{Seed: seed, Size: sizeName, Region: region, Nodes: size.Nodes}
	for _, s := range adv.Catalog.InRegion(region) {
		if len(fx.SKUs) == size.SKUs {
			break
		}
		fx.SKUs = append(fx.SKUs, skuRef{Name: s.Name, Alias: s.Alias})
	}
	if len(fx.SKUs) < size.SKUs {
		return nil, fmt.Errorf("region %s offers %d SKUs, fixture needs %d", region, len(fx.SKUs), size.SKUs)
	}
	r := rand.New(rand.NewSource(seed))
	for _, spec := range fixtureApps[:size.Apps] {
		app, err := adv.Apps.Get(spec.name)
		if err != nil {
			return nil, err
		}
		served := appInputs{Name: spec.name, Key: spec.key}
		live := appInputs{Name: spec.name, Key: spec.key}
		seen := map[string]bool{}
		for tries := 0; len(served.Values)+len(live.Values) < size.Inputs+size.LiveInputs; tries++ {
			if tries > 100*(size.Inputs+size.LiveInputs) {
				return nil, fmt.Errorf("%s: cannot draw %d distinct inputs", spec.name, size.Inputs+size.LiveInputs)
			}
			v := spec.draw(r)
			w, err := app.Parse(map[string]string{spec.key: v})
			if err != nil {
				return nil, err
			}
			if seen[w.InputDesc] {
				continue
			}
			seen[w.InputDesc] = true
			dst := &served
			if len(served.Values) == size.Inputs {
				dst = &live
			}
			dst.Values = append(dst.Values, v)
			dst.Descs = append(dst.Descs, w.InputDesc)
		}
		fx.Apps = append(fx.Apps, served)
		fx.Live = append(fx.Live, live)
	}
	return fx, nil
}

// sweepConfig is the collection config of one application's sweep.
func (f *fixture) sweepConfig(in appInputs, prefix string) *config.Config {
	skus := make([]string, len(f.SKUs))
	for i, s := range f.SKUs {
		skus[i] = s.Name
	}
	return &config.Config{
		Subscription: "perfbench",
		RGPrefix:     prefix + in.Name,
		Region:       f.Region,
		AppName:      in.Name,
		SKUs:         skus,
		NNodes:       f.Nodes,
		PPR:          100,
		AppInputs:    map[string][]string{in.Key: in.Values},
		Tags:         map[string]string{},
	}
}

// collectSweeps runs one collection per application on adv and returns
// the scenarios run and the failed ones. Each is journaled into dir.
func (f *fixture) collectSweeps(adv *core.Advisor, apps []appInputs, dir, prefix string, progress func(*scenario.Task)) (scenarios, failed int, err error) {
	for _, in := range apps {
		cfg := f.sweepConfig(in, prefix)
		if err := cfg.Validate(); err != nil {
			return 0, 0, err
		}
		dep, err := adv.DeployCreate(cfg)
		if err != nil {
			return 0, 0, err
		}
		opts := core.CollectOptions{Progress: progress}
		if opts.Journal, _, err = collector.OpenJournal(filepath.Join(dir, prefix+in.Name+".journal")); err != nil {
			return 0, 0, err
		}
		rep, err := adv.Collect(dep.Name, cfg, opts)
		if err == nil {
			err = opts.Journal.Err() // append failures are sticky
		}
		if jerr := opts.Journal.Close(); err == nil {
			err = jerr
		}
		if err != nil {
			return 0, 0, fmt.Errorf("collect %s: %w", in.Name, err)
		}
		scenarios += rep.Completed + rep.Failed + rep.Skipped
		failed += rep.Failed
	}
	return scenarios, failed, nil
}

// buildFixture collects the planned fixture into dir/store, compacts it,
// reopens it and checks its shape.
func buildFixture(f *fixture, dir string) error {
	f.Store = filepath.Join(dir, "store")
	adv := core.New("perfbench")
	if err := adv.OpenStore(f.Store); err != nil {
		return err
	}
	t0 := now()
	_, failed, err := f.collectSweeps(adv, f.Apps, dir, "fx", nil)
	if err == nil {
		err = adv.Store.Flush()
	}
	f.SweepS = seconds(t0)
	if err == nil {
		err = adv.Backend.Compact()
	}
	if cerr := adv.CloseStore(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	f.Failed = failed
	st, b, err := storage.Open(f.Store)
	if err != nil {
		return err
	}
	defer b.Close()
	pts := st.All()
	if err := checkSweepGroups(pts, f.Apps, f); err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	f.Points = len(pts)
	f.Inputs = len(st.Snapshot().Inputs())
	f.Bytes, err = filesBytes(f.Store, "")
	return err
}

// checkSweepGroups checks that points hold, for every (app, input, SKU) of
// apps, exactly one sweep over the fixture's node counts, and nothing else.
func checkSweepGroups(points []dataset.Point, apps []appInputs, f *fixture) error {
	groups := map[string][]int{}
	for i := range points {
		p := &points[i]
		k := p.AppName + "|" + p.InputDesc + "|" + p.SKU
		groups[k] = append(groups[k], p.NNodes)
	}
	want := append([]int(nil), f.Nodes...)
	sort.Ints(want)
	n := 0
	for _, in := range apps {
		for _, desc := range in.Descs {
			for _, s := range f.SKUs {
				k := in.Name + "|" + desc + "|" + s.Name
				got := groups[k]
				sort.Ints(got)
				if !slices.Equal(got, want) {
					return fmt.Errorf("group %s has node counts %v, want one sweep %v", k, got, want)
				}
				n++
			}
		}
	}
	if len(groups) != n {
		var extra []string
		for k := range groups {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return fmt.Errorf("%d (app, input, SKU) groups, want %d (groups: %s)", len(groups), n, strings.Join(extra, ", "))
	}
	return nil
}
